/**
 * @file
 * Machine-readable bench artifacts: every bench binary builds a
 * BenchReport alongside its human-readable table and writes it as
 * BENCH_<name>.json, the schema-versioned trajectory format that
 * tools/bench_diff and the CI perf-regression gate consume.
 *
 * Schema (version 1):
 * {
 *   "schema": "glider-bench",
 *   "schema_version": 1,
 *   "bench": "<name>",
 *   "config": { <env knobs and bench parameters> },
 *   "metrics": {
 *     "<metric name>": {
 *       "value": <number>,
 *       "unit": "<string>",                  // optional
 *       "direction": "higher_better" | "lower_better" | "info",
 *       "tolerance": <fraction>              // optional, see below
 *     }, ...
 *   },
 *   "degraded": <bool>,                      // any cell quarantined
 *   "quarantined_cells": [                   // present when degraded
 *     { "cell": "<key>", "error": "<what>", "attempts": <n> }, ...
 *   ],
 *   "extra": { <free-form attachments, e.g. a Registry export> }
 * }
 *
 * "degraded" distinguishes partial results from clean runs by
 * machine: a sweep that quarantined cells still writes its artifact,
 * but consumers (and humans) can see exactly which rows are missing
 * and why.
 *
 * "direction" tells bench_diff which way a change is a regression;
 * "info" metrics are reported but never gate. "tolerance" is the
 * per-metric allowed relative change; when absent the comparator's
 * default (10%) applies. Benches stamp generous tolerances on
 * absolute wall-clock metrics (machine-dependent) and tight ones on
 * ratios, so one committed baseline gates on any runner.
 */

#ifndef GLIDER_OBS_BENCH_REPORT_HH
#define GLIDER_OBS_BENCH_REPORT_HH

#include <string>

#include "json.hh"
#include "metrics.hh"

namespace glider {
namespace obs {

/** How bench_diff should interpret a metric's movement. */
enum class Direction { Info, HigherBetter, LowerBetter };

const char *directionName(Direction d);

/** One bench binary's machine-readable result document. */
class BenchReport
{
  public:
    static constexpr int kSchemaVersion = 1;

    /** @param name Bench name; the artifact is BENCH_<name>.json. */
    explicit BenchReport(std::string name);

    /** Record a configuration knob under "config". */
    void config(const std::string &key, json::Value value);

    /**
     * Record one metric. @p tolerance < 0 means "use the comparator
     * default"; the field is then omitted from the JSON.
     */
    void metric(const std::string &name, double value,
                const std::string &unit = "",
                Direction direction = Direction::Info,
                double tolerance = -1.0);

    /**
     * Record one quarantined sweep cell and mark the report degraded:
     * the artifact carries partial results.
     */
    void quarantine(const std::string &cell, const std::string &error,
                    int attempts);

    bool degraded() const { return degraded_; }

    /** Attach a free-form document section under "extra". */
    void attach(const std::string &key, json::Value value);

    /** Attach a Registry export under "extra".<key>. */
    void attachRegistry(const std::string &key, const Registry &reg);

    const std::string &name() const { return name_; }
    json::Value toJson() const;

    /**
     * Write BENCH_<name>.json into outputDir(). Disabled by
     * GLIDER_BENCH_JSON=0. Failures warn and return ""; success
     * returns the path written.
     */
    std::string write() const;

    /** Artifact directory: $GLIDER_BENCH_DIR, default ".". */
    static std::string outputDir();

  private:
    std::string name_;
    json::Value config_ = json::Value::object();
    json::Value metrics_ = json::Value::object();
    json::Value extra_ = json::Value::object();
    json::Value quarantined_ = json::Value::array();
    bool degraded_ = false;
};

} // namespace obs
} // namespace glider

#endif // GLIDER_OBS_BENCH_REPORT_HH
