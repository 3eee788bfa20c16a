/**
 * @file
 * Differential fuzz harness: JSONSki streamer vs. the DOM baseline as
 * oracle, over structured mutants of known-good corpora.
 *
 * The verdict rules follow the error handling contract (DESIGN.md §7):
 *  - a mutant that still validates must stream without throwing and
 *    must produce exactly the DOM engine's match values;
 *  - an invalid mutant may either stream to a (possibly empty) result
 *    — the paper's §3.3 license to skip damage in fast-forwarded
 *    regions — or throw jsonski::ParseError with a position inside the
 *    input; any other escape (foreign exception, crash, position past
 *    the end) is a harness failure.
 *
 * Everything is deterministic under (seed, config), so the ctest smoke
 * run and a long local soak explore exactly reproducible mutant
 * streams.
 *
 * Seam-hunting mode: every mutant is additionally replayed through the
 * adversarial chunk splitter with a seam forced at token-sensitive
 * offsets (right after a backslash, between two digits, after a UTF-8
 * lead byte, inside a \uXXXX escape).  The oracle for these replays is
 * the whole-buffer run of the *same* mutant — which is exactly the
 * contract, and works for invalid mutants too: error class and
 * position must not depend on where the chunks were cut.
 *
 * Kernel-replay mode: every mutant is also replayed under each other
 * runnable SIMD kernel (src/kernels/) with the whole-buffer run under
 * the active kernel as oracle — values, ErrorCode, error position, and
 * FastForwardStats must all be independent of the dispatched ISA.
 * JSONSKI_TEST_KERNELS=a,b in the environment restricts the replay set
 * (same spirit as JSONSKI_TEST_CHUNK_BYTES); each name must pass
 * kernels::select(), so a typo or an unsupported kernel fails fast
 * with ConfigError instead of silently shrinking coverage.
 *
 * Index-replay mode: every mutant additionally gets a structural
 * semi-index built from its bytes and the first query rerun through
 * Streamer::runIndexed, with the plain streaming run as oracle —
 * values, ErrorCode, and error position must be identical whether the
 * skips were answered from the index's bitmaps (usable mutant) or the
 * unusable-index fallback streamed.
 *
 * Grammar-fuzz mode: alongside the fixed query list, every mutant is
 * evaluated under one freshly generated query from QueryMutator.
 * A wellFormed() query is parseable by construction — a parse failure
 * is itself a harness failure — and on a valid mutant its results are
 * checked against the DOM oracle like any fixed query (filters and
 * interior descendants included).  A nearMiss() query must either
 * parse or be rejected with PathError carrying a position inside the
 * text; any other exception, or an out-of-range position, is an
 * escape.
 *
 * Query-set mode: every mutant is additionally run through the
 * combined multi-query engine on a QueryMutator::querySet() batch
 * (salted with exact duplicates and overlapping prefixes) and
 * differenced against sequential single-query runs.  On a valid
 * mutant the batched pass must succeed and every distinct query's
 * values must equal its solo run's, byte for byte; on an invalid
 * mutant both sides keep the result-or-in-range-ParseError contract
 * (the §3.3 skip license means a solo pass may lawfully notice damage
 * the batched pass parses, and vice versa, so value agreement is only
 * required when the document is valid — the queryset differential
 * test pins exact error agreement on crafted malformed documents).
 * Alongside, one set salted with a nearMiss() query must either parse
 * entirely or be rejected atomically with PathError (set_rejects).
 *
 * Record-stream mode: every mutant is also split into top-level
 * records twice — by scanRecords over the whole buffer and by the
 * incremental RecordReader (256-byte buffer, adversarially chunked
 * source).  The reader must deliver the scanner's records at the same
 * stream offsets and then fail exactly where the scanner does: same
 * ErrorCode, same absolute position.
 */
#ifndef JSONSKI_TESTING_DIFFERENTIAL_H
#define JSONSKI_TESTING_DIFFERENTIAL_H

#include <cstdint>
#include <string>
#include <vector>

namespace jsonski::testing {

/** Configuration of one fuzz run. */
struct FuzzConfig
{
    uint64_t seed = 1;
    size_t mutants = 10000; ///< total mutants across the whole corpus

    /** Seed documents; every one must be valid JSON. */
    std::vector<std::string> corpus;

    /** JSONPath texts evaluated against every mutant. */
    std::vector<std::string> queries;

    /** Cap on failures recorded before the run stops early. */
    size_t max_failures = 8;
};

/** Outcome of one fuzz run. */
struct FuzzReport
{
    size_t executed = 0;       ///< mutants actually run
    size_t valid_mutants = 0;  ///< mutants that still validated
    size_t invalid_mutants = 0;
    size_t parse_errors = 0;   ///< ParseErrors thrown (invalid mutants)
    size_t divergences = 0;    ///< result mismatch or throw on valid input
    size_t escapes = 0;        ///< non-ParseError exception / bad position
    size_t seam_replays = 0;   ///< chunked replays with a forced seam
    size_t kernel_replays = 0; ///< whole-buffer replays under other kernels
    size_t grammar_runs = 0;    ///< generated well-formed queries evaluated
    size_t grammar_rejects = 0; ///< near-miss queries rejected by the parser
    size_t set_runs = 0;    ///< batched-vs-sequential query-set replays
    size_t set_rejects = 0; ///< near-miss-salted sets rejected atomically
    size_t index_replays = 0;  ///< warm (semi-indexed) replays vs streaming
    size_t record_replays = 0; ///< RecordReader replays vs scanRecords

    /** Reproducible descriptions of every recorded failure. */
    std::vector<std::string> failures;

    bool ok() const { return divergences == 0 && escapes == 0; }
};

/**
 * Run the harness.  @p config.corpus must be non-empty and valid (the
 * harness asserts each seed document against the validator before
 * mutating it).
 */
FuzzReport runDifferentialFuzz(const FuzzConfig& config);

/**
 * Default corpus: records from every generator dataset (Table 4) in
 * both processing formats — a handful of small records plus a slice of
 * the single-large-record form per dataset — topped off with a few
 * handcrafted adversarial documents (escape runs at block boundaries,
 * strings full of metacharacters, deep nesting).
 *
 * @param per_dataset_bytes Approximate generated size per dataset.
 */
std::vector<std::string> defaultCorpus(size_t per_dataset_bytes = 4096);

/** Default query mix: the Table 5 shapes plus descendant/wildcard. */
std::vector<std::string> defaultQueries();

} // namespace jsonski::testing

#endif // JSONSKI_TESTING_DIFFERENTIAL_H
