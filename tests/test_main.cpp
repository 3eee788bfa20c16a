/**
 * @file
 * The main of every test binary.  JSONSKI_TEST_CHUNK_BYTES=N reroutes
 * every whole-buffer run through the chunked path in N-byte chunks
 * (ski::setWholeBufferChunkBytes), so the whole suite doubles as a
 * chunk-seam test; the library itself never reads the variable.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "ski/streamer.h"

int
main(int argc, char** argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    const char* chunk = std::getenv("JSONSKI_TEST_CHUNK_BYTES");
    if (chunk != nullptr && *chunk != '\0')
        jsonski::ski::setWholeBufferChunkBytes(
            static_cast<size_t>(std::strtoull(chunk, nullptr, 10)));
    return RUN_ALL_TESTS();
}
