/**
 * @file
 * Forward-only streaming cursor over a JSON buffer.
 *
 * The cursor owns the global streaming position `pos` from the paper
 * (Table 1) and serves bitmaps of the 64-byte block the position
 * currently lies in.  Only the *string layer* (escapes, quotes,
 * in-string mask) is computed eagerly and strictly left-to-right —
 * its carries thread through every block.  Metacharacter bitmaps are
 * pure per-block functions and are built lazily, one character class
 * at a time, exactly when a fast-forward case asks for them (the
 * paper's "relevant interval bitmaps", §4.2).
 *
 * Fast-forward primitives (ski/skipper.h) advance `pos` by consuming
 * these bitmaps; everything else (attribute-name extraction, primitive
 * peeks) uses short scalar reads through the same cursor.
 *
 * Two ingestion modes share every algorithm above:
 *
 *  - Whole-buffer: attach to a resident std::string_view (the 1-chunk
 *    special case; zero-copy).
 *  - Chunked: attach to a ChunkSource.  The cursor then assembles the
 *    input incrementally into a sliding window of 64-byte-aligned
 *    storage; the classifier carries (trailing-backslash run, CLMUL
 *    in-string parity) thread across chunk seams exactly as they do
 *    across block boundaries, so classification is seam-oblivious.
 *    Bytes below the discard floor — min(position block, consumer
 *    hold, scan hold) — are recycled at refill time, which bounds
 *    resident memory by the chunk size plus whatever token or value
 *    span a consumer is still holding (DESIGN.md §9 is the carry-state
 *    and hold contract).
 *
 * Positions are always *absolute* stream offsets in both modes, so
 * skipper arithmetic, error positions, and FastForwardStats are
 * byte-identical between modes (the chunk-seam differential rig pins
 * this down).
 *
 * Bounds guarantee: the cursor never dereferences a byte at or past
 * size(), nor below the discard floor.  The final partial block is
 * served from an internal space-padded copy (prepareTail), and the
 * padding classifies as pure whitespace, so it can never be mistaken
 * for structure; block-pointer selection is written overflow-free so
 * even a position past the end (legal transiently, e.g. after a
 * block-skip) resolves to that padded buffer rather than out-of-bounds
 * input memory.
 */
#ifndef JSONSKI_INTERVALS_CURSOR_H
#define JSONSKI_INTERVALS_CURSOR_H

#include <cassert>
#include <cstdio>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "intervals/block.h"
#include "intervals/chunk_source.h"
#include "intervals/classifier.h"
#include "telemetry/telemetry.h"
#include "util/bits.h"

namespace jsonski::intervals {

/** See file comment. */
class StreamCursor
{
  public:
    /** Sentinel for "no hold": nothing below the position is pinned. */
    static constexpr size_t kNoHold = static_cast<size_t>(-1);

    /** Ingestion accounting, maintained in every build (the refill
     *  path is cold, so these do not need the telemetry gate). */
    struct IngestStats
    {
        uint64_t refills = 0;        ///< ChunkSource::read calls that returned data
        uint64_t spill_bytes = 0;    ///< bytes memmoved by window compaction
        uint64_t seam_straddles = 0; ///< compactions where a held token
                                     ///< forced retention across the seam
        size_t window_peak = 0;      ///< high-water window capacity, bytes
        uint64_t bytes_ingested = 0; ///< total bytes pulled from the source
    };

    /**
     * Attach to a resident JSON buffer; the buffer must outlive the
     * cursor.
     *
     * @param scalar_classifier Use the character-level reference
     *        classifier instead of the SIMD one (ablation studies).
     */
    explicit StreamCursor(std::string_view input,
                          bool scalar_classifier = false)
        : data_(input.data()),
          len_(input.size()),
          scalar_classifier_(scalar_classifier)
    {}

    /**
     * Attach to a ChunkSource; the source must outlive the cursor.
     * Bytes are pulled on demand in chunks of at most @p chunk_bytes
     * and retired once the position and the holds have moved past them.
     *
     * @param chunk_bytes Refill granularity (clamped to >= 1).  The
     *        steady-state resident window is one block-rounded chunk
     *        plus one block of slack.
     */
    StreamCursor(ChunkSource& source, size_t chunk_bytes,
                 bool scalar_classifier = false);

    /** Current absolute byte position. */
    size_t pos() const { return pos_; }

    /**
     * Total input length.  In chunked mode this is the byte count
     * ingested *so far* and becomes the document length only once the
     * source is exhausted; atEnd()/ensureBlock() are the refill-aware
     * way to test for end of input.
     */
    size_t size() const { return len_; }

    /** True once the source is exhausted (always true whole-buffer). */
    bool exhausted() const { return eof_; }

    /** True when attached to a ChunkSource. */
    bool chunked() const { return src_ != nullptr; }

    /**
     * True once the position has reached the end of input.  In chunked
     * mode a position at the ingestion frontier triggers a refill, so
     * the answer accounts for bytes the source has not delivered yet.
     */
    bool
    atEnd() const
    {
        if (pos_ < len_)
            return false;
        // Refilling mutates only ingestion state, never the logical
        // stream; the const facade matches the whole-buffer mode.
        auto* self = const_cast<StreamCursor*>(this);
        if (!eof_ && !self->atEndSlow())
            return false;
        self->end_seen_ = true;
        return true;
    }

    /**
     * True once the cursor has told a consumer that the input ended:
     * atEnd() answered true, ensureBlock() false, or skipWhitespace()
     * '\0'.  Records mode reads this to tell an engine that ran off
     * the end of the stream from one that failed inside a record.
     */
    bool endSeen() const { return end_seen_; }

    /** Byte at the current position. @pre !atEnd() */
    char
    current() const
    {
        assert(!atEnd());
        return *mem(pos_);
    }

    /** Byte at absolute position @p p. @pre p < size() and resident. */
    char
    at(size_t p) const
    {
        assert(p < len_);
        return *mem(p);
    }

    /** View of resident bytes [begin, end). */
    std::string_view
    slice(size_t begin, size_t end) const
    {
        assert(begin <= end && end <= len_);
        return std::string_view(mem(begin), end - begin);
    }

    /** Underlying buffer. @pre whole-buffer mode. */
    std::string_view
    input() const
    {
        assert(src_ == nullptr &&
               "chunked input is never resident as a whole");
        return std::string_view(data_, len_);
    }

    /**
     * Move the position forward (or keep it).  Rewinding within the
     * current block is also allowed (needed when a scan overshoots by
     * a character); rewinding to an earlier block is not.
     */
    void
    setPos(size_t p)
    {
        assert(p / kBlockSize + 1 >= classified_blocks_);
        if constexpr (telemetry::kEnabled) {
            // A backward move is a scan overshoot being corrected.
            if (p < pos_)
                telemetry::count(telemetry::Counter::CursorReseeks);
        }
        pos_ = p;
    }

    /** Advance the position by @p n bytes. */
    void advance(size_t n) { setPos(pos_ + n); }

    /** Index of the block containing the current position. */
    size_t blockIndex() const { return pos_ / kBlockSize; }

    /** Offset of the current position within its block. */
    int
    offsetInBlock() const
    {
        return static_cast<int>(pos_ % kBlockSize);
    }

    /**
     * Make block @p idx addressable, refilling from the source when it
     * lies past the ingestion frontier.  @return false when the input
     * ends before that block's first byte.
     */
    bool
    ensureBlock(size_t idx)
    {
        size_t start = idx * kBlockSize;
        if (start < len_ || (!eof_ && refillTo(start + 1)))
            return true;
        end_seen_ = true;
        return false;
    }

    /**
     * Teleport the string-layer classification to the block containing
     * @p target, resuming from @p carry (supplied by a structural
     * index, index/structural_index.h) instead of classifying the
     * skipped blocks.  The position is left unchanged — callers
     * setPos() afterwards.
     *
     * In chunked mode the bytes up to @p target are ingested on the
     * way, recycling the window as the frontier advances, so a warp
     * over an arbitrarily long span keeps the steady-state residency
     * bound; retention holds pin bytes exactly as they do for a
     * streaming scan.
     *
     * @return false when the input ends at or before @p target — the
     *         index disagrees with the document; callers raise
     *         ErrorCode::IndexMismatch.
     */
    bool warpTo(size_t target, ClassifierCarry carry);

    /**
     * String-layer bitmaps of block @p idx.  Blocks up to @p idx are
     * classified on demand; access must be monotonically non-
     * decreasing except that the most recent block can be re-read.
     */
    const StringBits&
    stringsAt(size_t idx)
    {
        assert(idx * kBlockSize < len_);
        if (idx + 1 != classified_blocks_)
            classifyThrough(idx);
        return strings_;
    }

    /** String-layer bitmaps of the current block. @pre !atEnd() */
    const StringBits&
    strings()
    {
        return stringsAt(blockIndex());
    }

    /**
     * Structural bitmap of character @p c in the current block:
     * equality bits with pseudo-metacharacters (string interiors)
     * removed.  Built on demand — callers request only the classes the
     * active fast-forward case needs.  @pre !atEnd()
     */
    uint64_t
    bits(char c)
    {
        const StringBits& s = strings();
        return rawEqBits(blockData(), c) & ~s.in_string;
    }

    /** OR of bits(a) | bits(b), with one string-mask application. */
    uint64_t
    bits2(char a, char b)
    {
        const StringBits& s = strings();
        const char* d = blockData();
        return (rawEqBits(d, a) | rawEqBits(d, b)) & ~s.in_string;
    }

    /** OR of three structural bitmaps. */
    uint64_t
    bits3(char a, char b, char c)
    {
        const StringBits& s = strings();
        const char* d = blockData();
        return (rawEqBits(d, a) | rawEqBits(d, b) | rawEqBits(d, c)) &
               ~s.in_string;
    }

    /**
     * Fully eager classification of block @p idx (every metacharacter
     * class).  Retained for tests and non-streaming users; the skipper
     * uses the lazy accessors above.
     */
    BlockBits blockAt(size_t idx);

    /** Eager classification of the current block. @pre !atEnd() */
    const BlockBits&
    block()
    {
        if (!full_valid_ || full_idx_ != blockIndex()) {
            full_cached_ = blockAt(blockIndex());
            full_idx_ = blockIndex();
            full_valid_ = true;
        }
        return full_cached_;
    }

    /**
     * Clear bits of @p bm that fall strictly before the current
     * in-block offset (the "mask bits up to start" step of
     * Algorithm 3).
     */
    uint64_t
    maskFromPos(uint64_t bm) const
    {
        return bm & ~bits::maskBelow(offsetInBlock());
    }

    /**
     * Skip whitespace from the current position using the whitespace
     * bitmaps and return the byte found, or '\0' at end of input.  The
     * position lands on the returned byte.  Every byte <= 0x20 is
     * whitespace (a NUL byte included), so '\0' always means the end.
     */
    char skipWhitespace();

    /** Total number of blocks that have been classified so far. */
    size_t classifiedBlocks() const { return classified_blocks_; }

    /// @name Retention holds (chunked-mode discard floor)
    /// Bytes at or above min(hold, scanHold, position block) stay
    /// resident across refills.  The *consumer hold* is owned by the
    /// driver (value spans being emitted, pending descendant matches)
    /// with save/restore discipline; the *scan hold* is owned by the
    /// skipper (key bytes a batched scan may re-read).  Both are
    /// harmless no-ops in whole-buffer mode.
    /// @{

    /** Current consumer hold (kNoHold when nothing is pinned). */
    size_t hold() const { return hold_; }

    /** Set the consumer hold; callers save and restore the old value. */
    void setHold(size_t p) { hold_ = p; }

    /** Current skipper scan hold. */
    size_t scanHold() const { return scan_hold_; }

    /** Pin bytes from @p p for scalar re-reads (skipper internal). */
    void setScanHold(size_t p) { scan_hold_ = p; }

    /** Drop the scan hold. */
    void clearScanHold() { scan_hold_ = kNoHold; }

    /** Absolute offset of the first resident byte. */
    size_t windowBase() const { return base_; }

    /** Current window capacity in bytes (0 in whole-buffer mode). */
    size_t windowCapacity() const { return window_.size(); }

    /** Refill / spill / peak accounting; zeros in whole-buffer mode. */
    const IngestStats& ingestStats() const { return ingest_; }

    /// @}

  private:
    void classifyThrough(size_t idx);

    bool atEndSlow();

    /**
     * Pull from the source until @p target bytes are ingested or the
     * source is exhausted; recycles window space below the discard
     * floor first.  @return len_ >= target.
     */
    bool refillTo(size_t target);

    /**
     * Address of absolute position @p p.  Whole-buffer mode: base_ is
     * 0 and data_ is the caller's buffer.  Chunked mode: data_ is the
     * window and base_ its absolute offset; p must be resident.
     */
    const char*
    mem(size_t p) const
    {
#ifndef NDEBUG
        if (p < base_) {
            std::fprintf(stderr,
                         "mem breach: p=%zu base=%zu pos=%zu hold=%zd "
                         "scan_hold=%zd classified=%zu len=%zu\n",
                         p, base_, pos_, (ssize_t)hold_, (ssize_t)scan_hold_,
                         classified_blocks_, len_);
        }
#endif
        assert(p >= base_ && "byte was discarded (hold contract breach)");
        return data_ + (p - base_);
    }

    /**
     * 64 readable bytes for the block holding the current position
     * (the input itself, or the space-padded tail buffer for the final
     * partial block).  The comparison is written overflow-free so a
     * position at or past len_ can never fabricate an out-of-bounds
     * data_ pointer — it resolves to the padded tail, which is always
     * readable.
     */
    const char*
    blockData() const
    {
        return blockDataAt(blockIndex());
    }

    const char*
    blockDataAt(size_t idx) const
    {
        size_t base = idx * kBlockSize;
        return base + kBlockSize <= len_ ? mem(base) : tail_;
    }

    void prepareTail(size_t base);

    const char* data_;
    size_t len_;
    size_t pos_ = 0;
    bool scalar_classifier_ = false;

    ClassifierCarry carry_{};
    StringBits strings_{};
    size_t classified_blocks_ = 0; ///< blocks [0, n) done; cache holds n-1

    BlockBits full_cached_{};
    size_t full_idx_ = 0;
    bool full_valid_ = false;

    char tail_[kBlockSize] = {}; ///< padded copy of the final partial block
    bool tail_ready_ = false;
    bool end_seen_ = false; ///< see endSeen()

    // --- chunked-mode state (inert in whole-buffer mode) -------------
    ChunkSource* src_ = nullptr;
    bool eof_ = true;           ///< no more source bytes (true = final len_)
    size_t chunk_bytes_ = 0;    ///< refill granularity
    std::vector<char> window_;  ///< resident bytes [base_, len_)
    size_t base_ = 0;           ///< absolute offset of window_[0], block-aligned
    size_t hold_ = kNoHold;      ///< consumer retention mark
    size_t scan_hold_ = kNoHold; ///< skipper retention mark
    IngestStats ingest_;
};

} // namespace jsonski::intervals

#endif // JSONSKI_INTERVALS_CURSOR_H
