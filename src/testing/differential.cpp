#include "testing/differential.h"

#include <cassert>
#include <cstdlib>
#include <exception>

#include "baseline/dom/query.h"
#include "gen/datasets.h"
#include "intervals/chunk_source.h"
#include "index/structural_index.h"
#include "json/text.h"
#include "json/validate.h"
#include "kernels/kernel.h"
#include "path/matches.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "ski/multi.h"
#include "ski/record_reader.h"
#include "ski/record_scanner.h"
#include "ski/streamer.h"
#include "testing/mutator.h"
#include "testing/seam.h"
#include "util/error.h"
#include "util/rng.h"

namespace jsonski::testing {
namespace {

/** What one engine did with one (mutant, query) pair. */
struct EngineRun
{
    bool threw_parse_error = false;
    bool threw_other = false;
    ErrorCode error_code = ErrorCode::Unspecified;
    size_t error_position = 0;
    std::string error_what;
    std::vector<std::string> values;
};

EngineRun
runStreamer(const std::string& json, const path::PathQuery& q)
{
    EngineRun r;
    try {
        path::CollectSink sink;
        ski::Streamer(q).run(json, &sink);
        r.values = std::move(sink.values);
    } catch (const ParseError& e) {
        r.threw_parse_error = true;
        r.error_code = e.code();
        r.error_position = e.position();
        r.error_what = e.what();
    } catch (const std::exception& e) {
        r.threw_other = true;
        r.error_what = e.what();
    }
    return r;
}

EngineRun
runStreamerIndexed(const std::string& json, const path::PathQuery& q,
                   const index::StructuralIndex& ix)
{
    EngineRun r;
    try {
        path::CollectSink sink;
        ski::Streamer(q).runIndexed(json, ix, &sink);
        r.values = std::move(sink.values);
    } catch (const ParseError& e) {
        r.threw_parse_error = true;
        r.error_code = e.code();
        r.error_position = e.position();
        r.error_what = e.what();
    } catch (const std::exception& e) {
        r.threw_other = true;
        r.error_what = e.what();
    }
    return r;
}

/**
 * Seam offsets worth forcing for this document: one byte past the
 * first backslash (backslash = last byte of a chunk), between the
 * first two adjacent digits (mid-number), one byte past the first
 * UTF-8 lead byte (between lead and continuation), and three bytes
 * into the first \uXXXX escape (mid-hex) — the carry bugs Lemire's
 * classifier work singles out.
 */
std::vector<size_t>
seamOffsets(const std::string& doc)
{
    std::vector<size_t> seams;
    auto push = [&](size_t s) {
        if (s > 0 && s < doc.size())
            seams.push_back(s);
    };
    for (size_t i = 0; i < doc.size(); ++i) {
        if (doc[i] == '\\') {
            push(i + 1);
            break;
        }
    }
    for (size_t i = 0; i + 1 < doc.size(); ++i) {
        if (doc[i] >= '0' && doc[i] <= '9' && doc[i + 1] >= '0' &&
            doc[i + 1] <= '9') {
            push(i + 1);
            break;
        }
    }
    for (size_t i = 0; i < doc.size(); ++i) {
        if ((static_cast<unsigned char>(doc[i]) & 0xC0) == 0xC0) {
            push(i + 1);
            break;
        }
    }
    for (size_t i = 0; i + 1 < doc.size(); ++i) {
        if (doc[i] == '\\' && doc[i + 1] == 'u') {
            push(i + 3);
            break;
        }
    }
    // Predicate-relevant seams: right after the first attribute ':'
    // (the filter probe reads the value across a refill) and two bytes
    // into the first string attribute value (mid-token inside the
    // slice a comparison will decode).
    for (size_t i = 0; i + 1 < doc.size(); ++i) {
        if (doc[i] == ':') {
            push(i + 1);
            size_t j = i + 1;
            while (j < doc.size() && json::isWhitespace(doc[j]))
                ++j;
            if (j < doc.size() && doc[j] == '"')
                push(j + 2);
            break;
        }
    }
    return seams;
}

/**
 * Kernels every mutant is replayed under: JSONSKI_TEST_KERNELS=a,b
 * when set (strictly validated — a typo must not silently shrink
 * coverage), otherwise every runnable kernel other than the active
 * one.  Single-kernel hosts replay nothing.
 */
std::vector<const kernels::Kernel*>
replayKernels()
{
    std::vector<const kernels::Kernel*> out;
    const char* env = std::getenv("JSONSKI_TEST_KERNELS");
    if (env != nullptr && *env != '\0') {
        std::string_view list(env);
        while (!list.empty()) {
            size_t comma = list.find(',');
            out.push_back(&kernels::select(list.substr(0, comma)));
            list = comma == std::string_view::npos
                       ? std::string_view{}
                       : list.substr(comma + 1);
        }
        return out;
    }
    const kernels::Kernel& active = kernels::active();
    for (const kernels::Kernel* k : kernels::runnable()) {
        if (k != &active)
            out.push_back(k);
    }
    return out;
}

/** Clip a mutant for inclusion in a failure message. */
std::string
excerpt(const std::string& doc)
{
    constexpr size_t kMax = 160;
    if (doc.size() <= kMax)
        return doc;
    return doc.substr(0, kMax) + "...<" + std::to_string(doc.size()) +
           " bytes>";
}

std::string
describeEdits(const std::vector<Mutation>& edits)
{
    std::string out;
    for (const Mutation& m : edits) {
        if (!out.empty())
            out += ", ";
        out += describe(m);
    }
    return out;
}

} // namespace

FuzzReport
runDifferentialFuzz(const FuzzConfig& config)
{
    assert(!config.corpus.empty());
    for (const std::string& doc : config.corpus) {
        (void)doc;
        assert(json::validate(doc) && "corpus documents must be valid");
    }

    std::vector<path::PathQuery> queries;
    queries.reserve(config.queries.size());
    for (const std::string& text : config.queries)
        queries.push_back(path::parse(text));

    StructuredMutator mutator(config.seed);
    // Decorrelated stream: the grammar mutator must not perturb the
    // document-mutation sequence, so (seed, iteration) still replays
    // the same mutant with or without the grammar leg.
    QueryMutator query_mutator(config.seed ^ 0x9e3779b97f4a7c15ull);
    FuzzReport report;
    std::vector<Mutation> edits;
    const std::vector<const kernels::Kernel*> replay_kernels =
        replayKernels();

    auto recordFailure = [&](const std::string& what) {
        if (report.failures.size() < config.max_failures)
            report.failures.push_back(what);
    };

    for (size_t iter = 0; iter < config.mutants; ++iter) {
        if (report.failures.size() >= config.max_failures)
            break;
        const std::string& seed_doc =
            config.corpus[mutator.rng().below(config.corpus.size())];
        std::string mutant = mutator.mutate(seed_doc, &edits);
        ++report.executed;
        bool valid = static_cast<bool>(json::validate(mutant));
        (valid ? report.valid_mutants : report.invalid_mutants)++;

        std::string context = "iter " + std::to_string(iter) + " [" +
                              describeEdits(edits) +
                              "] json: " + excerpt(mutant);

        // Evaluate a rotating window of queries so runtime stays
        // proportional to the mutant count, not mutants x queries.
        size_t nq = queries.size() < 4 ? queries.size() : 4;
        EngineRun first_run;
        bool first_usable = false;
        for (size_t k = 0; k < nq; ++k) {
            size_t qi = (iter + k) % queries.size();
            EngineRun ski = runStreamer(mutant, queries[qi]);
            if (k == 0) {
                first_run = ski;
                first_usable = !ski.threw_other;
            }
            if (ski.threw_other) {
                ++report.escapes;
                recordFailure("non-ParseError escape: " + ski.error_what +
                              " query=" + config.queries[qi] + " " +
                              context);
                continue;
            }
            if (ski.threw_parse_error &&
                ski.error_position > mutant.size()) {
                ++report.escapes;
                recordFailure("ParseError position past the input: " +
                              ski.error_what +
                              " query=" + config.queries[qi] + " " +
                              context);
                continue;
            }
            if (valid) {
                if (ski.threw_parse_error) {
                    ++report.divergences;
                    recordFailure("throw on valid mutant: " +
                                  ski.error_what +
                                  " query=" + config.queries[qi] + " " +
                                  context);
                    continue;
                }
                path::CollectSink dom_sink;
                try {
                    dom::parseAndQuery(mutant, queries[qi], &dom_sink);
                } catch (const std::exception& e) {
                    ++report.escapes;
                    recordFailure(std::string("oracle threw on input the "
                                              "validator accepted: ") +
                                  e.what() + " " + context);
                    continue;
                }
                if (ski.values != dom_sink.values) {
                    ++report.divergences;
                    recordFailure(
                        "oracle divergence (ski " +
                        std::to_string(ski.values.size()) + " vs dom " +
                        std::to_string(dom_sink.values.size()) +
                        " values) query=" + config.queries[qi] + " " +
                        context);
                }
            } else if (ski.threw_parse_error) {
                ++report.parse_errors;
            }
        }

        // Grammar leg: one freshly generated well-formed query per
        // mutant, judged by the same rules as the fixed list, plus one
        // near-miss that the parser must reject cleanly (or accept —
        // some single-byte damage stays grammatical).
        {
            std::string qtext = query_mutator.wellFormed();
            bool parsed = false;
            path::PathQuery gq;
            try {
                gq = path::parse(qtext);
                parsed = true;
            } catch (const std::exception& e) {
                ++report.escapes;
                recordFailure(
                    std::string("generated query failed to parse: ") +
                    e.what() + " query=" + qtext);
            }
            if (parsed) {
                ++report.grammar_runs;
                EngineRun ski = runStreamer(mutant, gq);
                if (ski.threw_other) {
                    ++report.escapes;
                    recordFailure("grammar-query escape: " +
                                  ski.error_what + " query=" + qtext +
                                  " " + context);
                } else if (ski.threw_parse_error &&
                           ski.error_position > mutant.size()) {
                    ++report.escapes;
                    recordFailure(
                        "grammar-query position past the input: " +
                        ski.error_what + " query=" + qtext + " " +
                        context);
                } else if (valid) {
                    if (ski.threw_parse_error) {
                        ++report.divergences;
                        recordFailure("grammar-query throw on valid "
                                      "mutant: " +
                                      ski.error_what + " query=" + qtext +
                                      " " + context);
                    } else {
                        path::CollectSink dom_sink;
                        try {
                            dom::parseAndQuery(mutant, gq, &dom_sink);
                            if (ski.values != dom_sink.values) {
                                ++report.divergences;
                                recordFailure(
                                    "grammar-query oracle divergence "
                                    "(ski " +
                                    std::to_string(ski.values.size()) +
                                    " vs dom " +
                                    std::to_string(
                                        dom_sink.values.size()) +
                                    " values) query=" + qtext + " " +
                                    context);
                            }
                        } catch (const std::exception& e) {
                            ++report.escapes;
                            recordFailure(
                                std::string("grammar-query oracle "
                                            "threw: ") +
                                e.what() + " query=" + qtext + " " +
                                context);
                        }
                    }
                }
            }

            std::string miss = query_mutator.nearMiss();
            try {
                (void)path::parse(miss);
            } catch (const PathError& e) {
                ++report.grammar_rejects;
                if (e.position() != PathError::kNoPosition &&
                    e.position() > miss.size()) {
                    ++report.escapes;
                    recordFailure(
                        "near-miss rejection position past the text: " +
                        std::string(e.what()) + " query=" + miss);
                }
            } catch (const std::exception& e) {
                ++report.escapes;
                recordFailure(std::string("near-miss parser escape: ") +
                              e.what() + " query=" + miss);
            }
        }

        // Query-set leg: one combined multi-query pass over a random
        // batch (duplicates and overlapping prefixes included),
        // differenced against sequential solo runs.  Values must agree
        // per distinct query on valid mutants; invalid mutants only
        // need the result-or-in-range-ParseError contract on both
        // sides (see the file comment in differential.h).
        {
            std::vector<std::string> set_texts =
                query_mutator.querySet();
            std::string set_ctx = " set=";
            for (size_t i = 0; i < set_texts.size(); ++i)
                set_ctx += (i != 0 ? "," : "") + set_texts[i];
            set_ctx += " " + context;
            try {
                path::QuerySet qset =
                    path::QuerySet::fromTexts(set_texts);
                ski::MultiStreamer ms(qset);
                ski::MultiCollectSink msink(ms.queryCount());
                ++report.set_runs;
                bool m_threw = false;
                ErrorCode m_code = ErrorCode::Unspecified;
                size_t m_pos = 0;
                std::string m_what;
                try {
                    ms.run(mutant, &msink);
                } catch (const ParseError& e) {
                    m_threw = true;
                    m_code = e.code();
                    m_pos = e.position();
                    m_what = e.what();
                }
                (void)m_code;
                if (m_threw && m_pos > mutant.size()) {
                    ++report.escapes;
                    recordFailure(
                        "batched position past the input: " + m_what +
                        set_ctx);
                } else if (valid && m_threw) {
                    ++report.divergences;
                    recordFailure("batched throw on valid mutant: " +
                                  m_what + set_ctx);
                } else if (valid) {
                    for (size_t qi = 0; qi < ms.queryCount(); ++qi) {
                        EngineRun solo =
                            runStreamer(mutant, ms.queries()[qi]);
                        if (solo.threw_other || solo.threw_parse_error)
                            continue; // the fixed-query leg's territory
                        if (msink.values[qi] != solo.values) {
                            ++report.divergences;
                            recordFailure(
                                "batched value divergence (batched " +
                                std::to_string(msink.values[qi].size()) +
                                " vs solo " +
                                std::to_string(solo.values.size()) +
                                " values) query=" +
                                ms.querySet().canonical[qi] + set_ctx);
                        }
                    }
                }
            } catch (const PathError&) {
                // querySet() entries parse by construction.
                ++report.escapes;
                recordFailure("generated query set failed to compile" +
                              set_ctx);
            } catch (const std::exception& e) {
                ++report.escapes;
                recordFailure(std::string("query-set escape: ") +
                              e.what() + set_ctx);
            }

            // Atomic-rejection probe: salt the set with a near-miss;
            // the whole set must parse or be rejected with PathError —
            // a partial compile or a foreign exception is an escape.
            std::vector<std::string> salted = set_texts;
            salted.insert(salted.begin() + static_cast<long>(
                              query_mutator.rng().below(salted.size() + 1)),
                          query_mutator.nearMiss());
            try {
                (void)path::QuerySet::fromTexts(salted);
            } catch (const PathError&) {
                ++report.set_rejects;
            } catch (const std::exception& e) {
                ++report.escapes;
                recordFailure(
                    std::string("salted query-set escape: ") + e.what() +
                    set_ctx);
            }
        }

        // Seam-hunting replay: rerun the first query chunked, with a
        // seam forced at each token-sensitive offset.  The whole-buffer
        // run of the same mutant is the oracle — observable behaviour
        // must not depend on where the input was cut.
        if (first_usable) {
            size_t qi0 = iter % queries.size();
            for (size_t seam : seamOffsets(mutant)) {
                SeamRun chunked = runStreamerChunked(
                    mutant, queries[qi0], {seam, mutant.size() + 1},
                    /*chunk_bytes=*/64);
                ++report.seam_replays;
                std::string seam_ctx = " seam=" + std::to_string(seam) +
                                       " query=" + config.queries[qi0] +
                                       " " + context;
                if (chunked.threw_other) {
                    ++report.escapes;
                    recordFailure("chunked replay escape: " +
                                  chunked.error_what + seam_ctx);
                } else if (chunked.threw_parse_error !=
                           first_run.threw_parse_error) {
                    ++report.divergences;
                    recordFailure(
                        std::string("seam error divergence: whole ") +
                        (first_run.threw_parse_error ? "threw"
                                                     : "succeeded") +
                        ", chunked " +
                        (chunked.threw_parse_error ? "threw ("
                             + chunked.error_what + ")" : "succeeded") +
                        seam_ctx);
                } else if (chunked.threw_parse_error &&
                           chunked.error_position !=
                               first_run.error_position) {
                    ++report.divergences;
                    recordFailure("seam error position divergence: whole " +
                                  std::to_string(first_run.error_position) +
                                  " vs chunked " +
                                  std::to_string(chunked.error_position) +
                                  seam_ctx);
                } else if (!chunked.threw_parse_error &&
                           chunked.values != first_run.values) {
                    ++report.divergences;
                    recordFailure("seam value divergence" + seam_ctx);
                }
            }
        }

        // Cross-ISA replay: rerun the first query whole-buffer under
        // every other runnable SIMD kernel.  The run under the active
        // kernel is the oracle — values, ErrorCode, error position,
        // and the fast-forward skip accounting must not depend on
        // which ISA the dispatcher picked.
        if (first_usable && !replay_kernels.empty()) {
            size_t qi0 = iter % queries.size();
            SeamRun oracle = runStreamerWhole(mutant, queries[qi0]);
            for (const kernels::Kernel* kern : replay_kernels) {
                SeamRun alt;
                {
                    kernels::Override guard(*kern);
                    alt = runStreamerWhole(mutant, queries[qi0]);
                }
                ++report.kernel_replays;
                std::string kctx = std::string(" kernel=") + kern->name +
                                   " query=" + config.queries[qi0] +
                                   " " + context;
                if (alt.threw_other) {
                    ++report.escapes;
                    recordFailure("kernel replay escape: " +
                                  alt.error_what + kctx);
                } else if (alt.threw_parse_error !=
                           oracle.threw_parse_error) {
                    ++report.divergences;
                    recordFailure(
                        std::string("kernel error divergence: oracle ") +
                        (oracle.threw_parse_error ? "threw ("
                             + oracle.error_what + ")" : "succeeded") +
                        ", replay " +
                        (alt.threw_parse_error ? "threw ("
                             + alt.error_what + ")" : "succeeded") +
                        kctx);
                } else if (alt.threw_parse_error &&
                           (alt.error_position != oracle.error_position ||
                            alt.error_code != oracle.error_code)) {
                    ++report.divergences;
                    recordFailure(
                        "kernel error detail divergence: oracle " +
                        std::string(errorCodeName(oracle.error_code)) +
                        "@" + std::to_string(oracle.error_position) +
                        " vs replay " +
                        std::string(errorCodeName(alt.error_code)) + "@" +
                        std::to_string(alt.error_position) + kctx);
                } else if (!alt.threw_parse_error &&
                           alt.values != oracle.values) {
                    ++report.divergences;
                    recordFailure("kernel value divergence (oracle " +
                                  std::to_string(oracle.values.size()) +
                                  " vs replay " +
                                  std::to_string(alt.values.size()) +
                                  " values)" + kctx);
                } else if (!alt.threw_parse_error &&
                           alt.stats.skipped != oracle.stats.skipped) {
                    ++report.divergences;
                    recordFailure("kernel fast-forward stats divergence "
                                  "(oracle total " +
                                  std::to_string(oracle.stats.total()) +
                                  " vs replay " +
                                  std::to_string(alt.stats.total()) +
                                  ")" + kctx);
                }
            }
        }

        // Warm-path replay: build a semi-index from the mutant's bytes
        // and rerun the first query through Streamer::runIndexed.  The
        // plain streaming run is the oracle — skipping via the index's
        // bitmaps (or the unusable-index fallback) must not change
        // values, ErrorCode, or error position.
        if (first_usable) {
            size_t qi0 = iter % queries.size();
            index::StructuralIndex ix =
                index::StructuralIndex::build(mutant);
            EngineRun warm = runStreamerIndexed(mutant, queries[qi0], ix);
            ++report.index_replays;
            std::string ictx = std::string(" usable=") +
                               (ix.usable() ? "1" : "0") +
                               " query=" + config.queries[qi0] + " " +
                               context;
            if (warm.threw_other) {
                ++report.escapes;
                recordFailure("indexed replay escape: " + warm.error_what +
                              ictx);
            } else if (warm.threw_parse_error &&
                       warm.error_code == ErrorCode::IndexMismatch &&
                       !valid) {
                // Grammatically invalid document: the resident warm
                // path replays plain on a defensive mismatch, but the
                // chunked reroute (JSONSKI_TEST_CHUNK_BYTES) cannot —
                // its source is forward-only — so a typed fail-closed
                // refusal is within contract there.  Silently *wrong*
                // output would still land in the value-divergence
                // branch below.
            } else if (warm.threw_parse_error !=
                       first_run.threw_parse_error) {
                ++report.divergences;
                recordFailure(
                    std::string("indexed error divergence: streaming ") +
                    (first_run.threw_parse_error
                         ? "threw (" + first_run.error_what + ")"
                         : "succeeded") +
                    ", indexed " +
                    (warm.threw_parse_error
                         ? "threw (" + warm.error_what + ")"
                         : "succeeded") +
                    ictx);
            } else if (warm.threw_parse_error &&
                       (warm.error_position != first_run.error_position ||
                        warm.error_code != first_run.error_code)) {
                ++report.divergences;
                recordFailure(
                    "indexed error detail divergence: streaming " +
                    std::string(errorCodeName(first_run.error_code)) +
                    "@" + std::to_string(first_run.error_position) +
                    " vs indexed " +
                    std::string(errorCodeName(warm.error_code)) + "@" +
                    std::to_string(warm.error_position) + ictx);
            } else if (!warm.threw_parse_error &&
                       warm.values != first_run.values) {
                ++report.divergences;
                recordFailure("indexed value divergence (streaming " +
                              std::to_string(first_run.values.size()) +
                              " vs indexed " +
                              std::to_string(warm.values.size()) +
                              " values)" + ictx);
            }
        }

        // The record scanner sees the same mutants: it must also obey
        // the result-or-ParseError contract, and the incremental
        // RecordReader (256-byte buffer, chunked source) must agree
        // with it: the scanner's records — those before the scanner's
        // error, if any; the reader may throw before delivering them
        // all — then the same error at the same stream offset.
        std::vector<std::pair<size_t, size_t>> spans;
        std::string scan_error; // empty: the scanner accepted the mutant
        try {
            spans = ski::scanRecords(mutant);
        } catch (const ParseError& e) {
            scan_error = std::string(errorCodeName(e.code())) + "@" +
                         std::to_string(e.position());
            size_t tail = 0;
            spans = ski::scanRecords(
                std::string_view(mutant).substr(0, e.position()), &tail);
            if (e.position() > mutant.size()) {
                ++report.escapes;
                recordFailure(std::string("scanRecords position past the "
                                          "input: ") +
                              e.what() + " " + context);
            }
        } catch (const std::exception& e) {
            ++report.escapes;
            recordFailure(std::string("scanRecords escape: ") + e.what() +
                          " " + context);
            continue;
        }
        ++report.record_replays;
        size_t chunk = 1 + iter % 97;
        std::string reader_error;
        size_t n = 0;
        bool same = true;
        try {
            intervals::SplitSource src(mutant, chunk);
            ski::RecordReader reader(src, 256);
            std::string_view rec;
            for (; reader.next(rec); ++n)
                same = same && n < spans.size() &&
                       reader.offset() == spans[n].first &&
                       rec.size() == spans[n].second;
        } catch (const ParseError& e) {
            reader_error = std::string(errorCodeName(e.code())) + "@" +
                           std::to_string(e.position());
        } catch (const std::exception& e) {
            ++report.escapes;
            recordFailure(std::string("RecordReader escape: ") + e.what() +
                          " " + context);
            continue;
        }
        if (!same || reader_error != scan_error ||
            (scan_error.empty() && n != spans.size())) {
            ++report.divergences;
            recordFailure("RecordReader vs scanRecords: " +
                          std::to_string(n) + " records then " +
                          (reader_error.empty() ? "end" : reader_error) +
                          " vs " + std::to_string(spans.size()) +
                          " then " +
                          (scan_error.empty() ? "end" : scan_error) +
                          " chunk=" + std::to_string(chunk) + " " +
                          context);
        }
    }
    return report;
}

std::vector<std::string>
defaultCorpus(size_t per_dataset_bytes)
{
    std::vector<std::string> corpus;
    for (gen::DatasetId id : gen::kAllDatasets) {
        // A whole small-format record set, record by record, plus the
        // single-large-record form of the same dataset.
        gen::SmallRecords small =
            gen::generateSmall(id, per_dataset_bytes);
        size_t take = small.count() < 4 ? small.count() : 4;
        for (size_t i = 0; i < take; ++i)
            corpus.emplace_back(small.record(i));
        corpus.push_back(gen::generateLarge(id, per_dataset_bytes));
    }
    // Handcrafted adversaries: escape runs ending on a block boundary,
    // metacharacters inside strings, and nesting deeper than a block.
    std::string run_doc = "{\"k\": \"";
    run_doc += std::string(64 - run_doc.size() - 3, 'x');
    run_doc += "\\\\\\\"q\", \"m\": [1, 2]}";
    corpus.push_back(run_doc);
    corpus.push_back(
        R"({"a":"}}}{{{","b":["s,]}",{"c":"x\"y\\"},null],"d":{"e":[]}})");
    std::string deep;
    for (int i = 0; i < 40; ++i)
        deep += "[";
    deep += "{\"id\": 7}";
    for (int i = 0; i < 40; ++i)
        deep += "]";
    corpus.push_back(deep);
    return corpus;
}

std::vector<std::string>
defaultQueries()
{
    // The Table 5 small-record query shapes, plus wildcard, slice,
    // index, descendant, filter, and interior-descendant coverage
    // (the filter/descendant shapes target generator dataset fields so
    // they select real values, not just empty result sets).
    return {
        "$.nm",
        "$.en.urls[*].url",
        "$.cp[1:3].id",
        "$.rt[*].lg[*].st[*].dt.tx",
        "$.cl.P150[*].ms.pty",
        "$.bmrpr.pr",
        "$[*][2:4]",
        "$[0]",
        "$..id",
        "$[?(@.id)]",
        "$.cp[?(@.id>1)].id",
        "$..urls[?(@.url!='x')].url",
        "$..cp[0].id",
        "$..en..url",
    };
}

} // namespace jsonski::testing
