#include "ski/record_reader.h"

#include <algorithm>
#include <cstring>

#include "json/text.h"
#include "ski/record_scanner.h"
#include "util/error.h"

namespace jsonski::ski {

RecordReader::RecordReader(std::istream& in, size_t buffer_size)
    : owned_(in), src_(&*owned_),
      buffer_(std::max<size_t>(buffer_size, 256))
{}

RecordReader::RecordReader(intervals::ChunkSource& source,
                           size_t buffer_size)
    : src_(&source), buffer_(std::max<size_t>(buffer_size, 256))
{}

void
RecordReader::refill()
{
    // Slide the unconsumed tail to the front.
    if (begin_ > 0) {
        std::memmove(buffer_.data(), buffer_.data() + begin_,
                     end_ - begin_);
        end_ -= begin_;
        window_offset_ += begin_;
        begin_ = 0;
    }
    if (end_ == buffer_.size()) {
        // The tail record does not fit: grow so progress is possible.
        buffer_.resize(buffer_.size() * 2);
    }
    size_t got = src_->read(buffer_.data() + end_, buffer_.size() - end_);
    end_ += got;
    if (got == 0)
        eof_ = true;
}

bool
RecordReader::next(std::string_view& record)
{
    for (;;) {
        if (pending_next_ < pending_.size()) {
            auto [off, len] = pending_[pending_next_++];
            record = std::string_view(buffer_.data() + off, len);
            record_offset_ = window_offset_ + off;
            ++records_read_;
            bytes_read_ += len;
            return true;
        }

        if (eof_ && begin_ >= end_)
            return false;

        // Need more complete records: refill and rescan the window.
        if (!eof_)
            refill();
        std::string_view window(buffer_.data() + begin_, end_ - begin_);
        size_t base = window_offset_ + begin_; // window start in stream
        size_t tail = 0;
        std::vector<std::pair<size_t, size_t>> spans;
        try {
            spans = scanRecords(window, &tail);
        } catch (const ParseError& e) {
            throw e.shifted(base);
        }
        pending_.clear();
        pending_next_ = 0;
        for (auto [off, len] : spans)
            pending_.emplace_back(begin_ + off, len);
        size_t consumed = begin_ + tail;
        if (pending_.empty()) {
            if (eof_) {
                // Trailing content with no complete record.
                if (tail < window.size())
                    throw ParseError(ErrorCode::UnterminatedRecord,
                                     "unterminated trailing record",
                                     base + tail);
                begin_ = end_; // only whitespace left
                return false;
            }
            // The record spans past the buffer: loop refills (and
            // grows when full).
            continue;
        }
        begin_ = consumed;
        // A malformed trailing fragment (at eof) is reported once the
        // complete records ahead of it have been delivered: the next
        // call rescans just the tail and throws above.
    }
}

} // namespace jsonski::ski
