#include "intervals/classifier.h"

#include <cstring>

#include "kernels/kernel.h"

namespace jsonski::intervals {
namespace {

/**
 * Mark characters escaped by a backslash, handling runs of backslashes
 * that straddle block boundaries (odd-length run => next char escaped).
 * This is the classic odd/even backslash-sequence computation used by
 * simdjson and Pison.  Pure word arithmetic — identical for every
 * kernel, so it lives here rather than in the dispatch layer.
 *
 * @param backslash     Bitmap of '\\' bytes in this block.
 * @param prev_escaped  In/out carry: 1 if bit 0 of this block is escaped.
 * @return Bitmap of escaped characters in this block.
 */
uint64_t
findEscaped(uint64_t backslash, uint64_t& prev_escaped)
{
    if (backslash == 0) {
        uint64_t escaped = prev_escaped;
        prev_escaped = 0;
        return escaped;
    }
    backslash &= ~prev_escaped;
    uint64_t follows_escape = (backslash << 1) | prev_escaped;
    constexpr uint64_t even_bits = 0x5555555555555555ULL;
    uint64_t odd_starts = backslash & ~even_bits & ~follows_escape;
    uint64_t even_carries;
    prev_escaped =
        __builtin_add_overflow(odd_starts, backslash, &even_carries) ? 1 : 0;
    uint64_t invert_mask = even_carries << 1;
    return (even_bits ^ invert_mask) & follows_escape;
}

BlockBits
finishClassification(const kernels::Kernel& k, const kernels::RawBits64& raw,
                     ClassifierCarry& carry)
{
    BlockBits out;
    uint64_t escaped = findEscaped(raw.backslash, carry.prev_escaped);
    out.quote = raw.quote & ~escaped;
    out.in_string = k.prefix_xor(out.quote) ^ carry.prev_in_string;
    // Carry: all-ones if the block ends inside a string.
    carry.prev_in_string =
        static_cast<uint64_t>(static_cast<int64_t>(out.in_string) >> 63);
    uint64_t outside = ~out.in_string;
    out.open_brace = raw.open_brace & outside;
    out.close_brace = raw.close_brace & outside;
    out.open_bracket = raw.open_bracket & outside;
    out.close_bracket = raw.close_bracket & outside;
    out.colon = raw.colon & outside;
    out.comma = raw.comma & outside;
    out.whitespace = raw.whitespace & outside;
    return out;
}

} // namespace

BlockBits
classifyBlock(const char* data, ClassifierCarry& carry)
{
    const kernels::Kernel& k = kernels::active();
    return finishClassification(k, k.raw_bits(data), carry);
}

BlockBits
classifyPartialBlock(const char* data, size_t len, ClassifierCarry& carry)
{
    // Pad the tail with spaces: padding classifies as whitespace, which
    // never produces structural bits and keeps whitespace scans simple.
    // The cursor still clamps positions to the true input length.
    char buf[kBlockSize];
    std::memset(buf, ' ', kBlockSize);
    std::memcpy(buf, data, len);
    return classifyBlock(buf, carry);
}

BlockBits
classifyBlockReference(const char* data, size_t len, ClassifierCarry& carry)
{
    BlockBits out;
    bool in_string = carry.prev_in_string != 0;
    bool escaped = carry.prev_escaped != 0;
    for (size_t i = 0; i < kBlockSize; ++i) {
        char c = i < len ? data[i] : ' ';
        uint64_t bit = uint64_t{1} << i;
        bool was_escaped = escaped;
        escaped = false;
        if (!was_escaped && c == '\\') {
            escaped = true;
            if (in_string)
                out.in_string |= bit;
            continue;
        }
        if (!was_escaped && c == '"') {
            out.quote |= bit;
            if (!in_string) {
                in_string = true;
                out.in_string |= bit; // opening quote inclusive
            } else {
                in_string = false; // closing quote exclusive
            }
            continue;
        }
        // Regular character, or a character neutralized by an escape.
        if (in_string) {
            out.in_string |= bit;
            continue;
        }
        switch (c) {
          case '{': out.open_brace |= bit; break;
          case '}': out.close_brace |= bit; break;
          case '[': out.open_bracket |= bit; break;
          case ']': out.close_bracket |= bit; break;
          case ':': out.colon |= bit; break;
          case ',': out.comma |= bit; break;
          case ' ':
          case '\t':
          case '\n':
          case '\r': out.whitespace |= bit; break;
          default: break;
        }
    }
    carry.prev_escaped = escaped ? 1 : 0;
    carry.prev_in_string = in_string ? ~uint64_t{0} : 0;
    return out;
}

bool
classifierUsesSimd()
{
    return kernels::activeName() != "scalar";
}

StringBits
classifyStringsBlock(const char* data, ClassifierCarry& carry)
{
    const kernels::Kernel& k = kernels::active();
    kernels::StringRaw raw = k.string_raw(data);
    StringBits out;
    uint64_t escaped = findEscaped(raw.backslash, carry.prev_escaped);
    out.quote = raw.quote & ~escaped;
    out.in_string = k.prefix_xor(out.quote) ^ carry.prev_in_string;
    carry.prev_in_string =
        static_cast<uint64_t>(static_cast<int64_t>(out.in_string) >> 63);
    return out;
}

uint64_t
rawEqBits(const char* data, char c)
{
    return kernels::active().eq_bits(data, c);
}

uint64_t
rawWhitespaceBits(const char* data)
{
    return kernels::active().whitespace_bits(data);
}

} // namespace jsonski::intervals
