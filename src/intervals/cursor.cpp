#include "intervals/cursor.h"

#include <algorithm>
#include <cstring>

namespace jsonski::intervals {

StreamCursor::StreamCursor(ChunkSource& source, size_t chunk_bytes,
                           bool scalar_classifier)
    : data_(nullptr),
      len_(0),
      scalar_classifier_(scalar_classifier),
      src_(&source),
      eof_(false),
      chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes)
{
    // Steady-state window: one block-rounded chunk plus a block of
    // slack, so a refill whose discard floor sits at the position
    // block never needs to reallocate.  The window only grows past
    // this when a consumer hold pins a long span across seams.
    size_t cap =
        (chunk_bytes_ + kBlockSize - 1) / kBlockSize * kBlockSize +
        kBlockSize;
    window_.resize(cap);
    data_ = window_.data();
    ingest_.window_peak = cap;
}

bool
StreamCursor::atEndSlow()
{
    refillTo(pos_ + 1);
    return pos_ >= len_;
}

bool
StreamCursor::refillTo(size_t target)
{
    if (eof_ || src_ == nullptr)
        return target <= len_;

    // Discard floor: the lowest absolute byte that must stay resident
    // — the position's own block, both retention holds, and the
    // classifier's resume block (its bytes are read when the block is
    // classified, which may still be ahead of the position).
    // Block-aligned so a block is never torn.
    size_t floor =
        std::min(std::min(pos_, hold_),
                 std::min(scan_hold_, classified_blocks_ * kBlockSize));
    floor -= floor % kBlockSize;
    if (floor > base_) {
        size_t keep = len_ - floor;
        if (keep != 0)
            std::memmove(window_.data(),
                         window_.data() + (floor - base_), keep);
        ingest_.spill_bytes += keep;
        // A hold below the position's block means a token or value
        // span is being carried across this seam.
        if (std::min(hold_, scan_hold_) < pos_ - pos_ % kBlockSize)
            ++ingest_.seam_straddles;
        base_ = floor;
    }

    // Capacity for [base_, target) only: the pull loop below caps each
    // read at the free space, so the steady-state window (one chunk
    // plus a block) grows only when a hold pins a longer span.
    size_t need = std::max(target, len_) - base_;
    need = (need + kBlockSize - 1) / kBlockSize * kBlockSize;
    if (need > window_.size()) {
        window_.resize(std::max(need, window_.size() + window_.size() / 2));
        ingest_.window_peak =
            std::max(ingest_.window_peak, window_.size());
    }
    data_ = window_.data();

    while (len_ < target) {
        size_t cap =
            std::min(window_.size() - (len_ - base_), chunk_bytes_);
        assert(cap > 0);
        size_t n = src_->read(window_.data() + (len_ - base_), cap);
        if (n == 0) {
            eof_ = true;
            break;
        }
        len_ += n;
        ingest_.bytes_ingested += n;
        ++ingest_.refills;
    }
    return target <= len_;
}

void
StreamCursor::prepareTail(size_t base)
{
    // The padding must classify as pure whitespace: it can then never
    // contribute structural or quote bits, so no scan can mistake a
    // byte past len_ for real input (tests/boundary_test.cpp pins this
    // down for structural characters landing on the final byte).
    assert(base <= len_ && len_ - base < kBlockSize);
    // A partial block is only classified once the input is complete:
    // classifyThrough refills a block before classifying it, so in
    // chunked mode reaching here implies the source is exhausted and
    // len_ is final — otherwise the whitespace padding would corrupt
    // the carries of bytes still to come.
    assert(eof_ && "partial-block classification before end of input");
    if (tail_ready_)
        return;
    std::memset(tail_, ' ', kBlockSize);
    std::memcpy(tail_, mem(base), len_ - base);
    tail_ready_ = true;
}

void
StreamCursor::classifyThrough(size_t idx)
{
    assert(idx + 1 >= classified_blocks_ &&
           "cursor cannot rewind to an earlier block");
    while (classified_blocks_ <= idx) {
        size_t start = classified_blocks_ * kBlockSize;
        if (start + kBlockSize > len_) { // overflow-free form of the
            if (!eof_)                   // partial-tail test
                refillTo(start + kBlockSize);
            if (start + kBlockSize > len_)
                prepareTail(start);
        }
        const char* d = blockDataAt(classified_blocks_);
        if (scalar_classifier_) {
            // Ablation mode: derive the string layer from the
            // character-level reference classifier.
            BlockBits b = classifyBlockReference(
                d, kBlockSize, carry_);
            strings_.in_string = b.in_string;
            strings_.quote = b.quote;
        } else {
            strings_ = classifyStringsBlock(d, carry_);
        }
        ++classified_blocks_;
    }
}

bool
StreamCursor::warpTo(size_t target, ClassifierCarry carry)
{
    if (target >= len_) {
        if (src_ == nullptr || eof_)
            return false;
        // Ingest up to the target in chunk strides, advancing the
        // position and the classifier mark with the frontier so the
        // discard floor follows and the window is recycled instead of
        // accumulating the whole skipped span.  Blocks passed this way
        // are never string-classified — that is the point of the warp;
        // the index's entry carry replaces their contribution below.
        while (len_ <= target && !eof_) {
            if (pos_ < len_)
                pos_ = len_;
            if (classified_blocks_ < pos_ / kBlockSize)
                classified_blocks_ = pos_ / kBlockSize;
            refillTo(std::min(target + 1, len_ + chunk_bytes_));
        }
        if (target >= len_)
            return false; // source exhausted short of the target
    }
    size_t blk = target / kBlockSize;
    if (blk + 1 <= classified_blocks_)
        return true; // already classified past the target: no skip
    carry_ = carry;
    classified_blocks_ = blk;
    full_valid_ = false;
    return true;
}

BlockBits
StreamCursor::blockAt(size_t idx)
{
    const StringBits& s = stringsAt(idx);
    const char* d = blockDataAt(idx);
    BlockBits out;
    out.in_string = s.in_string;
    out.quote = s.quote;
    uint64_t outside = ~s.in_string;
    out.open_brace = rawEqBits(d, '{') & outside;
    out.close_brace = rawEqBits(d, '}') & outside;
    out.open_bracket = rawEqBits(d, '[') & outside;
    out.close_bracket = rawEqBits(d, ']') & outside;
    out.colon = rawEqBits(d, ':') & outside;
    out.comma = rawEqBits(d, ',') & outside;
    out.whitespace = rawWhitespaceBits(d) & outside;
    return out;
}

char
StreamCursor::skipWhitespace()
{
    // Fast path: compact JSON rarely has whitespace at all; answer
    // from the raw byte before touching any bitmap.  The rule is the
    // bitmap's (every byte <= 0x20 is whitespace), so a NUL byte is
    // skipped like a space and '\0' only ever means end of input.
    if (pos_ < len_) {
        char c = *mem(pos_);
        if (static_cast<unsigned char>(c) > 0x20)
            return c;
    }
    while (!atEnd()) {
        (void)strings(); // keep the sequential pipeline in step
        uint64_t ws = rawWhitespaceBits(blockData());
        uint64_t candidates = maskFromPos(~ws);
        if (candidates != 0) {
            size_t p = blockIndex() * kBlockSize +
                       static_cast<size_t>(bits::trailingZeros(candidates));
            if (p >= len_)
                break; // the candidate is tail padding
            pos_ = p;
            return *mem(pos_);
        }
        pos_ = (blockIndex() + 1) * kBlockSize;
    }
    pos_ = len_;
    end_seen_ = true;
    return '\0';
}

} // namespace jsonski::intervals
