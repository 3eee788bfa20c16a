/**
 * @file
 * Build-once, query-many structural semi-index (DESIGN.md §14).
 *
 * A StructuralIndex is the per-document positional metadata the
 * skippers need to resolve G4/G5 fast-forward targets without
 * rescanning: per-*level* string-masked bitmaps of the open / close /
 * colon / comma characters (one bit per byte, 64-bit words aligned to
 * the cursor's 64-byte blocks; level convention in
 * index/structural_scan.h), plus two per-block classifier-carry
 * bitmaps (in-string / escaped at block entry) so a cursor can resume
 * string-layer classification at an arbitrary block without touching
 * the bytes in between (StreamCursor::warpTo).
 *
 * It is built in one pass by IndexBuilder — a chunk-source-aware
 * generalization of the Pison baseline builder: feed() accepts bytes
 * at any granularity, so the same code path serves whole buffers,
 * ChunkSources, and network bodies.  The builder also stamps identity
 * and safety metadata:
 *
 *  - contentHash()/docSize(): a 64-bit content hash + length, the
 *    cache key and the identity check (`describes()`) — an index is
 *    only ever consulted for the exact bytes it was built from.
 *  - usable(): true only when the document is *structurally clean*
 *    (openers/closers balanced, type-matched, never underflowing, not
 *    in-string at EOF).  On unclean documents the bitmaps are dropped
 *    and every consumer falls back to plain streaming, which makes
 *    warm-path behaviour on malformed input trivially identical to
 *    the streaming path.
 */
#ifndef JSONSKI_INDEX_STRUCTURAL_INDEX_H
#define JSONSKI_INDEX_STRUCTURAL_INDEX_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "intervals/block.h"
#include "intervals/chunk_source.h"
#include "util/bits.h"

namespace jsonski::index {

/**
 * Incremental 64-bit content hash (FNV-1a over little-endian words
 * with a splitmix finalizer, length-folded).  Word-at-a-time keeps the
 * warm path's identity check cheap relative to a structural pass; the
 * internal staging buffer makes the digest independent of feed
 * granularity, so chunked and resident builds of the same bytes agree.
 */
class ContentHasher
{
  public:
    void update(const char* data, size_t n);
    /** Seals the digest; the hasher is spent afterwards. */
    uint64_t finish();

  private:
    void
    mix(uint64_t w)
    {
        h_ = (h_ ^ w) * 0x100000001b3ull;
    }

    uint64_t h_ = 0xcbf29ce484222325ull;
    uint64_t pending_ = 0;
    unsigned npend_ = 0;
    uint64_t total_ = 0;
};

/** One-shot convenience over ContentHasher. */
uint64_t hashContent(std::string_view doc);

/** The four structural bitmaps of one level. */
struct LevelRows
{
    std::vector<uint64_t> open;
    std::vector<uint64_t> close;
    std::vector<uint64_t> colon;
    std::vector<uint64_t> comma;

    bool operator==(const LevelRows&) const = default;
};

/** See file comment. */
class StructuralIndex
{
  public:
    /** Levels indexed by default; deeper nesting streams normally. */
    static constexpr size_t kDefaultLevels = 16;
    /** Hard ceiling on the levels a builder records. */
    static constexpr size_t kMaxLevels = 64;
    /** "No such position" result of the next/select queries. */
    static constexpr size_t kNone = std::numeric_limits<size_t>::max();

    StructuralIndex() = default;

    uint64_t contentHash() const { return content_hash_; }
    size_t docSize() const { return static_cast<size_t>(doc_size_); }
    /** Deepest nesting observed (may exceed levels()). */
    uint64_t maxDepth() const { return max_depth_; }
    /** False on structurally unclean documents: always stream. */
    bool usable() const { return usable_; }
    /** Levels with resident bitmaps (0 when not usable()). */
    size_t levels() const { return rows_.size(); }
    /** Resident footprint, the cache weight. */
    size_t memoryBytes() const;

    /** True iff this index was built from exactly these bytes. */
    bool
    describes(std::string_view doc) const
    {
        return doc.size() == docSize() &&
               hashContent(doc) == content_hash_;
    }

    // --- Warm-path queries.  Positions are absolute byte offsets;
    // `from` is inclusive; kNone means no such bit before docSize().
    // All require level < levels().

    /** First closer ('}' or ']') at @p level at/after @p from. */
    size_t
    nextClose(size_t level, size_t from) const
    {
        return next1(rows_[level].close, from);
    }

    /** First ',' or closer at @p level at/after @p from. */
    size_t
    nextCommaOrClose(size_t level, size_t from) const
    {
        return next2(rows_[level].comma, rows_[level].close, from);
    }

    /** First opener or closer at @p level at/after @p from. */
    size_t
    nextOpenOrClose(size_t level, size_t from) const
    {
        return next2(rows_[level].open, rows_[level].close, from);
    }

    /** Number of ',' bits at @p level in [from, to). */
    size_t countCommas(size_t level, size_t from, size_t to) const;

    /**
     * Position of the @p k 'th (1-based) ',' bit at @p level in
     * [from, to), or kNone when fewer than k exist.
     */
    size_t selectComma(size_t level, size_t from, size_t to,
                       size_t k) const;

    /**
     * Classifier carry at the entry of @p block, for resuming the
     * string layer after a jump.  @pre block < ceil(docSize()/64).
     */
    intervals::ClassifierCarry
    carryFor(size_t block) const
    {
        intervals::ClassifierCarry c;
        if (bitAt(entry_in_string_, block))
            c.prev_in_string = ~uint64_t{0};
        if (bitAt(entry_escaped_, block))
            c.prev_escaped = 1;
        return c;
    }

    /** Same identity, verdict, bitmaps, and carries. */
    bool operator==(const StructuralIndex&) const = default;

    // --- Construction.

    static StructuralIndex build(std::string_view json,
                                 size_t max_levels = kDefaultLevels);
    /** Drains @p src; same result as the resident build of the bytes. */
    static StructuralIndex build(intervals::ChunkSource& src,
                                 size_t max_levels = kDefaultLevels,
                                 size_t chunk_bytes = 64 * 1024);

  private:
    friend class IndexBuilder;

    static bool
    bitAt(const std::vector<uint64_t>& bm, size_t i)
    {
        size_t w = i / 64;
        return w < bm.size() && ((bm[w] >> (i % 64)) & 1) != 0;
    }

    size_t next1(const std::vector<uint64_t>& a, size_t from) const;
    size_t next2(const std::vector<uint64_t>& a,
                 const std::vector<uint64_t>& b, size_t from) const;

    uint64_t content_hash_ = 0;
    uint64_t doc_size_ = 0;
    uint64_t max_depth_ = 0;
    bool usable_ = false;
    /** Words per bitmap == ceil(doc_size_/64). */
    size_t words_ = 0;
    std::vector<LevelRows> rows_;
    /** Bit b: classification state entering block b. */
    std::vector<uint64_t> entry_in_string_;
    std::vector<uint64_t> entry_escaped_;
};

/**
 * One-pass, any-granularity builder; see file comment.  The on*
 * callbacks are the structural-scan sink interface and are not part of
 * the public contract.
 */
class IndexBuilder
{
  public:
    explicit IndexBuilder(
        size_t max_levels = StructuralIndex::kDefaultLevels);

    void feed(const char* data, size_t n);
    void feed(std::string_view s) { feed(s.data(), s.size()); }

    /** Seals and returns the index; the builder is spent afterwards. */
    StructuralIndex finish();

    // Scan-sink callbacks (index/structural_scan.h); internal.
    void onOpen(size_t blk, uint64_t bit, int64_t level, bool brace);
    void onClose(size_t blk, uint64_t bit, int64_t level, bool brace);
    void onSeparator(size_t blk, uint64_t bit, int64_t level, bool colon);

  private:
    void processBlock(const char* data, size_t len);
    void setRowBit(std::vector<uint64_t> LevelRows::* row, size_t blk,
                   uint64_t bit, int64_t level);

    size_t max_levels_;
    std::vector<LevelRows> rows_;
    std::vector<uint64_t> entry_in_string_;
    std::vector<uint64_t> entry_escaped_;
    /** Bit per depth slot: 1 = '{' opened it. */
    std::vector<uint64_t> type_stack_;
    intervals::ClassifierCarry carry_;
    int64_t depth_ = 0;
    uint64_t max_depth_ = 0;
    size_t blocks_ = 0;
    bool clean_ = true;
    bool finished_ = false;
    ContentHasher hasher_;
    uint64_t total_bytes_ = 0;
    char tail_[intervals::kBlockSize];
    size_t tail_len_ = 0;
};

} // namespace jsonski::index

#endif // JSONSKI_INDEX_STRUCTURAL_INDEX_H
