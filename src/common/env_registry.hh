/**
 * @file
 * Central registry of every GLIDER_* environment knob.
 *
 * Each knob is declared exactly once here with its name, type,
 * default, and a one-line doc string. All runtime reads go through
 * the typed accessors below; the only std::getenv("GLIDER_…") call
 * in the tree lives in env_registry.cc, and glider_lint's
 * `env-registry` rule rejects any other. The same table generates
 * README's knob reference (`glider_lint --print-env-table`), and
 * lint cross-checks the two against drift.
 *
 * Adding a knob: extend Knob (alphabetical), add its row to kKnobs
 * in env_registry.cc at the same position, and regenerate the README
 * table. The registry self-checks that enum order and table order
 * agree.
 */

#ifndef GLIDER_COMMON_ENV_REGISTRY_HH
#define GLIDER_COMMON_ENV_REGISTRY_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace glider {
namespace env {

/** Every GLIDER_* knob, alphabetical by variable name. */
enum class Knob {
    Accesses,           //!< GLIDER_ACCESSES
    BenchDir,           //!< GLIDER_BENCH_DIR
    BenchJson,          //!< GLIDER_BENCH_JSON
    CellDeadlineMs,     //!< GLIDER_CELL_DEADLINE_MS
    CellRetries,        //!< GLIDER_CELL_RETRIES
    Ckpt,               //!< GLIDER_CKPT
    CkptVerify,         //!< GLIDER_CKPT_VERIFY
    ConvEpochs,         //!< GLIDER_CONV_EPOCHS
    Epochs,             //!< GLIDER_EPOCHS
    FaultInject,        //!< GLIDER_FAULT_INJECT
    LstmDim,            //!< GLIDER_LSTM_DIM
    MaxSeq,             //!< GLIDER_MAX_SEQ
    MicroAccesses,      //!< GLIDER_MICRO_ACCESSES
    MicroReps,          //!< GLIDER_MICRO_REPS
    Mixes,              //!< GLIDER_MIXES
    MixAccesses,        //!< GLIDER_MIX_ACCESSES
    ScenarioAccesses,   //!< GLIDER_SCENARIO_ACCESSES
    ServeClients,       //!< GLIDER_SERVE_CLIENTS
    ServeQueueCap,      //!< GLIDER_SERVE_QUEUE_CAP
    ServeRequests,      //!< GLIDER_SERVE_REQUESTS
    ServeShards,        //!< GLIDER_SERVE_SHARDS
    ServeTenants,       //!< GLIDER_SERVE_TENANTS
    ServeTrainPct,      //!< GLIDER_SERVE_TRAIN_PCT
    ServeWindow,        //!< GLIDER_SERVE_WINDOW
    ServeWorkload,      //!< GLIDER_SERVE_WORKLOAD
    ServeZipfPct,       //!< GLIDER_SERVE_ZIPF_PCT
    Simd,               //!< GLIDER_SIMD
    StreamAccesses,     //!< GLIDER_STREAM_ACCESSES
    StreamReps,         //!< GLIDER_STREAM_REPS
    StreamWorkload,     //!< GLIDER_STREAM_WORKLOAD
    Threads,            //!< GLIDER_THREADS
    TraceDir,           //!< GLIDER_TRACE_DIR
    TraceSpill,         //!< GLIDER_TRACE_SPILL
    VerifyMinAgreement, //!< GLIDER_VERIFY_MIN_AGREEMENT
    VerifyWorkloads,    //!< GLIDER_VERIFY_WORKLOADS
};

/** One registry row; all strings are static. */
struct KnobInfo
{
    Knob id;
    const char *name; //!< environment variable ("GLIDER_…")
    const char *type; //!< "u64" | "f64" | "string" | "flag"
    const char *def;  //!< default, rendered exactly as documented
    const char *doc;  //!< one-line description
};

/** The full table, alphabetical by name; @p count receives its size. */
const KnobInfo *allKnobs(std::size_t *count);

/** Registry row for @p k. */
const KnobInfo &info(Knob k);

/** Registry row by variable name, nullptr if not registered. */
const KnobInfo *findByName(const std::string &name);

/**
 * Raw environment value for @p k: the process environment string, or
 * nullptr when the variable is unset. The one getenv choke point.
 */
const char *raw(Knob k);

/** True when the variable is set to a non-empty value. */
bool isSet(Knob k);

/** String value, falling back to the registered default. */
std::string str(Knob k);

/** Base-10 integer value, falling back to the registered default. */
std::uint64_t u64(Knob k);

/** Floating-point value, falling back to the registered default. */
double f64(Knob k);

/**
 * Boolean value: false iff the effective value (environment, else
 * the registered default) is empty or starts with '0'.
 */
bool flag(Knob k);

} // namespace env
} // namespace glider

#endif // GLIDER_COMMON_ENV_REGISTRY_HH
