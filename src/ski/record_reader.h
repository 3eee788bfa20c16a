/**
 * @file
 * Incremental record reader: stream a sequence of JSON records from an
 * std::istream through a fixed-size buffer, without ever materializing
 * the whole input.  This realizes the paper's memory claim for the
 * streaming scheme — "memory consumption is configurable by adjusting
 * the input buffer size" (§5.2) — for the small-records scenario.
 *
 * Records are delimited with the bit-parallel record scanner; a record
 * must fit in the buffer (the reader grows it once if a single record
 * exceeds the configured size, so progress is always possible).
 *
 * Every position is an offset in the whole stream, whatever the buffer
 * size: scanner errors point at the offending byte, an unterminated
 * trailing record at its opening byte (DESIGN.md §7), and offset()
 * tells a caller where the current record starts so it can rebase
 * errors from an engine run over the record.
 */
#ifndef JSONSKI_SKI_RECORD_READER_H
#define JSONSKI_SKI_RECORD_READER_H

#include <cstddef>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "intervals/chunk_source.h"

namespace jsonski::ski {

/** See file comment. */
class RecordReader
{
  public:
    /**
     * @param in          Source stream (must outlive the reader).
     * @param buffer_size Working buffer capacity in bytes.
     */
    explicit RecordReader(std::istream& in, size_t buffer_size = 1 << 20);

    /**
     * Read records from any ChunkSource (must outlive the reader);
     * @p buffer_size doubles as the refill granularity.
     */
    explicit RecordReader(intervals::ChunkSource& source,
                          size_t buffer_size = 1 << 20);

    /**
     * Fetch the next record.
     *
     * @param record Out: view of the record text.  Valid until the
     *               next call to next() (the buffer may be refilled).
     * @return false at end of input.
     * @throws jsonski::ParseError on malformed stream content.
     */
    bool next(std::string_view& record);

    /** Stream offset of the record last returned by next(). */
    size_t offset() const { return record_offset_; }

    /** Records delivered so far. */
    size_t recordsRead() const { return records_read_; }

    /** Total record bytes delivered so far. */
    size_t bytesRead() const { return bytes_read_; }

    /** Current buffer capacity (grows only for oversized records). */
    size_t bufferSize() const { return buffer_.size(); }

  private:
    /** Slide leftover bytes to the front and refill from the stream. */
    void refill();

    std::optional<intervals::IstreamSource> owned_; ///< istream adapter
    intervals::ChunkSource* src_;
    std::vector<char> buffer_;
    size_t begin_ = 0; ///< first unconsumed byte
    size_t end_ = 0;   ///< one past the last valid byte
    size_t window_offset_ = 0; ///< stream offset of buffer_[0]
    size_t record_offset_ = 0; ///< stream offset of the last record
    bool eof_ = false;
    size_t records_read_ = 0;
    size_t bytes_read_ = 0;

    /** Spans of records already located in the current buffer fill. */
    std::vector<std::pair<size_t, size_t>> pending_;
    size_t pending_next_ = 0;
};

} // namespace jsonski::ski

#endif // JSONSKI_SKI_RECORD_READER_H
