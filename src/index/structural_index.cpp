#include "index/structural_index.h"

#include <cassert>
#include <cstring>

#include "index/structural_scan.h"
#include "intervals/classifier.h"

namespace jsonski::index {

using intervals::BlockBits;
using intervals::kBlockSize;

// --------------------------------------------------------------------
// ContentHasher

void
ContentHasher::update(const char* data, size_t n)
{
    total_ += n;
    const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
    // Drain into the staging word first so feed granularity can't
    // shift word boundaries (chunked and resident builds must agree).
    while (npend_ != 0 && n != 0) {
        pending_ |= uint64_t(*p++) << (8 * npend_);
        --n;
        if (++npend_ == 8) {
            mix(pending_);
            pending_ = 0;
            npend_ = 0;
        }
    }
    while (n >= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        mix(w);
        p += 8;
        n -= 8;
    }
    while (n != 0) {
        pending_ |= uint64_t(*p++) << (8 * npend_);
        ++npend_;
        --n;
    }
}

uint64_t
ContentHasher::finish()
{
    if (npend_ != 0) {
        mix(pending_);
        pending_ = 0;
        npend_ = 0;
    }
    // Folding the length separates prefixes of each other ("a" vs
    // "a\0") even though the tail word is zero-padded.
    mix(total_);
    uint64_t x = h_;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

uint64_t
hashContent(std::string_view doc)
{
    ContentHasher h;
    h.update(doc.data(), doc.size());
    return h.finish();
}

// --------------------------------------------------------------------
// StructuralIndex queries

size_t
StructuralIndex::next1(const std::vector<uint64_t>& a, size_t from) const
{
    size_t word = from / 64;
    if (word >= words_)
        return kNone;
    uint64_t cur = a[word] & ~bits::maskBelow(static_cast<int>(from % 64));
    for (;;) {
        if (cur != 0)
            return word * 64 +
                   static_cast<size_t>(bits::trailingZeros(cur));
        if (++word >= words_)
            return kNone;
        cur = a[word];
    }
}

size_t
StructuralIndex::next2(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b, size_t from) const
{
    size_t word = from / 64;
    if (word >= words_)
        return kNone;
    uint64_t cur = (a[word] | b[word]) &
                   ~bits::maskBelow(static_cast<int>(from % 64));
    for (;;) {
        if (cur != 0)
            return word * 64 +
                   static_cast<size_t>(bits::trailingZeros(cur));
        if (++word >= words_)
            return kNone;
        cur = a[word] | b[word];
    }
}

size_t
StructuralIndex::countCommas(size_t level, size_t from, size_t to) const
{
    if (from >= to)
        return 0;
    const std::vector<uint64_t>& bm = rows_[level].comma;
    size_t w0 = from / 64;
    size_t w1 = (to - 1) / 64;
    size_t n = 0;
    for (size_t w = w0; w <= w1 && w < words_; ++w) {
        uint64_t cur = bm[w];
        if (w == w0)
            cur &= ~bits::maskBelow(static_cast<int>(from % 64));
        if (w == w1 && to % 64 != 0)
            cur &= bits::maskBelow(static_cast<int>(to % 64));
        n += static_cast<size_t>(bits::popcount(cur));
    }
    return n;
}

size_t
StructuralIndex::selectComma(size_t level, size_t from, size_t to,
                             size_t k) const
{
    if (from >= to || k == 0)
        return kNone;
    const std::vector<uint64_t>& bm = rows_[level].comma;
    size_t w0 = from / 64;
    size_t w1 = (to - 1) / 64;
    for (size_t w = w0; w <= w1 && w < words_; ++w) {
        uint64_t cur = bm[w];
        if (w == w0)
            cur &= ~bits::maskBelow(static_cast<int>(from % 64));
        if (w == w1 && to % 64 != 0)
            cur &= bits::maskBelow(static_cast<int>(to % 64));
        size_t c = static_cast<size_t>(bits::popcount(cur));
        if (c < k) {
            k -= c;
            continue;
        }
        while (--k != 0)
            cur = bits::clearLowest(cur);
        return w * 64 + static_cast<size_t>(bits::trailingZeros(cur));
    }
    return kNone;
}

size_t
StructuralIndex::memoryBytes() const
{
    size_t bytes = sizeof(*this);
    bytes += (entry_in_string_.size() + entry_escaped_.size()) *
             sizeof(uint64_t);
    for (const LevelRows& r : rows_)
        bytes += (r.open.size() + r.close.size() + r.colon.size() +
                  r.comma.size()) *
                 sizeof(uint64_t);
    return bytes;
}

// --------------------------------------------------------------------
// IndexBuilder

namespace {

void
setBit(std::vector<uint64_t>& bm, size_t i)
{
    size_t w = i / 64;
    if (bm.size() <= w)
        bm.resize(w + 1, 0);
    bm[w] |= uint64_t{1} << (i % 64);
}

bool
getBit(const std::vector<uint64_t>& bm, size_t i)
{
    size_t w = i / 64;
    return w < bm.size() && ((bm[w] >> (i % 64)) & 1) != 0;
}

void
assignBit(std::vector<uint64_t>& bm, size_t i, bool v)
{
    size_t w = i / 64;
    if (bm.size() <= w)
        bm.resize(w + 1, 0);
    if (v)
        bm[w] |= uint64_t{1} << (i % 64);
    else
        bm[w] &= ~(uint64_t{1} << (i % 64));
}

} // namespace

IndexBuilder::IndexBuilder(size_t max_levels)
    : max_levels_(std::min(max_levels, StructuralIndex::kMaxLevels))
{
    if (max_levels_ == 0)
        max_levels_ = 1;
}

void
IndexBuilder::feed(const char* data, size_t n)
{
    assert(!finished_);
    hasher_.update(data, n);
    total_bytes_ += n;
    while (n != 0) {
        if (tail_len_ != 0 || n < kBlockSize) {
            size_t take = std::min(kBlockSize - tail_len_, n);
            std::memcpy(tail_ + tail_len_, data, take);
            tail_len_ += take;
            data += take;
            n -= take;
            if (tail_len_ == kBlockSize) {
                processBlock(tail_, kBlockSize);
                tail_len_ = 0;
            }
        } else {
            processBlock(data, kBlockSize);
            data += kBlockSize;
            n -= kBlockSize;
        }
    }
}

void
IndexBuilder::processBlock(const char* data, size_t len)
{
    size_t blk = blocks_;
    // Entry carries are recorded *before* classification: they are
    // what a warping cursor needs to resume the string layer at this
    // block.
    if (carry_.prev_in_string != 0)
        setBit(entry_in_string_, blk);
    if (carry_.prev_escaped != 0)
        setBit(entry_escaped_, blk);
    BlockBits b = len == kBlockSize
                      ? intervals::classifyBlock(data, carry_)
                      : intervals::classifyPartialBlock(data, len, carry_);
    ++blocks_;
    depth_ = scanStructuralBlock(b, blk, depth_, *this);
}

void
IndexBuilder::setRowBit(std::vector<uint64_t> LevelRows::* row,
                        size_t blk, uint64_t bit, int64_t level)
{
    if (level < 0 || static_cast<size_t>(level) >= max_levels_)
        return;
    size_t l = static_cast<size_t>(level);
    if (l >= rows_.size())
        rows_.resize(l + 1);
    std::vector<uint64_t>& v = rows_[l].*row;
    if (v.size() <= blk)
        v.resize(blk + 1, 0);
    v[blk] |= bit;
}

void
IndexBuilder::onOpen(size_t blk, uint64_t bit, int64_t level, bool brace)
{
    // The opener's pre-increment depth is its type-stack slot; its
    // matching closer arrives at exactly this level.
    int64_t slot = level + 1;
    if (slot < 0) {
        clean_ = false; // depth underflowed earlier
        return;
    }
    assignBit(type_stack_, static_cast<size_t>(slot), brace);
    if (static_cast<uint64_t>(slot) + 1 > max_depth_)
        max_depth_ = static_cast<uint64_t>(slot) + 1;
    setRowBit(&LevelRows::open, blk, bit, level);
}

void
IndexBuilder::onClose(size_t blk, uint64_t bit, int64_t level, bool brace)
{
    if (level < 0) {
        clean_ = false; // closer without an opener
        return;
    }
    if (getBit(type_stack_, static_cast<size_t>(level)) != brace)
        clean_ = false; // '}' closing '[' or vice versa
    setRowBit(&LevelRows::close, blk, bit, level);
}

void
IndexBuilder::onSeparator(size_t blk, uint64_t bit, int64_t level,
                          bool colon)
{
    if (level < 0) {
        clean_ = false; // separator outside any container
        return;
    }
    setRowBit(colon ? &LevelRows::colon : &LevelRows::comma, blk, bit,
              level);
}

StructuralIndex
IndexBuilder::finish()
{
    assert(!finished_);
    finished_ = true;
    if (tail_len_ != 0) {
        processBlock(tail_, tail_len_);
        tail_len_ = 0;
    }
    if (depth_ != 0 || carry_.prev_in_string != 0)
        clean_ = false; // unbalanced or in-string at EOF

    StructuralIndex idx;
    idx.content_hash_ = hasher_.finish();
    idx.doc_size_ = total_bytes_;
    idx.max_depth_ = max_depth_;
    idx.usable_ = clean_;
    idx.words_ = blocks_;
    if (clean_) {
        // Pad every row to the full word count so the query walkers
        // never bounds-check per word.
        for (LevelRows& r : rows_) {
            r.open.resize(blocks_, 0);
            r.close.resize(blocks_, 0);
            r.colon.resize(blocks_, 0);
            r.comma.resize(blocks_, 0);
        }
        size_t entry_words = (blocks_ + 63) / 64;
        entry_in_string_.resize(entry_words, 0);
        entry_escaped_.resize(entry_words, 0);
        idx.rows_ = std::move(rows_);
        idx.entry_in_string_ = std::move(entry_in_string_);
        idx.entry_escaped_ = std::move(entry_escaped_);
    }
    return idx;
}

StructuralIndex
StructuralIndex::build(std::string_view json, size_t max_levels)
{
    IndexBuilder b(max_levels);
    b.feed(json);
    return b.finish();
}

StructuralIndex
StructuralIndex::build(intervals::ChunkSource& src, size_t max_levels,
                       size_t chunk_bytes)
{
    IndexBuilder b(max_levels);
    std::vector<char> buf(std::max<size_t>(chunk_bytes, 1));
    for (;;) {
        size_t n = src.read(buf.data(), buf.size());
        if (n == 0)
            break;
        b.feed(buf.data(), n);
    }
    return b.finish();
}

} // namespace jsonski::index
