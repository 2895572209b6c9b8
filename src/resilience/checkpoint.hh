/**
 * @file
 * Sweep checkpointing: every completed cell's result row is persisted
 * through obs::json so an interrupted or killed sweep resumes by
 * replaying only the missing cells.
 *
 * Schema (glider-sweep-ckpt, version 2):
 * {
 *   "schema": "glider-sweep-ckpt",
 *   "schema_version": 2,
 *   "sweep": "<sweep name>",
 *   "config": { <harness knobs the rows depend on> },
 *   "cells": { "<cell key>": { <encoded row> }, ... }
 * }
 *
 * Byte-identity contract: cells serialize sorted by key (not in
 * completion order), rows exclude wall-clock fields, and obs::json
 * prints doubles in shortest round-trippable form — so the checkpoint
 * written by an interrupted-then-resumed sweep is byte-identical to
 * one from an uninterrupted run. A config fingerprint mismatch (e.g.
 * a different GLIDER_ACCESSES) discards the file rather than mixing
 * rows computed under different settings.
 */

#ifndef GLIDER_RESILIENCE_CHECKPOINT_HH
#define GLIDER_RESILIENCE_CHECKPOINT_HH

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "cachesim/simulator.hh"
#include "obs/json.hh"

namespace glider {
namespace resilience {

/** A resumed row failed its determinism recomputation check. */
class CheckpointMismatch : public std::runtime_error
{
  public:
    explicit CheckpointMismatch(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * Encode one result row for checkpointing. sim_seconds (wall time) is
 * deliberately dropped: it is nondeterministic and would break both
 * the resume determinism check and checkpoint byte-identity.
 */
obs::json::Value encodeResult(const sim::SingleCoreResult &row);

/** Inverse of encodeResult (sim_seconds restored as 0).
 *  @throws std::runtime_error on a missing, mistyped or negative field. */
sim::SingleCoreResult decodeResult(const obs::json::Value &v);

/** One sweep's checkpoint file. Thread-safe; record() persists. */
class SweepCheckpoint
{
  public:
    /** 2: rows carry the LLC policy's predictor counters. */
    static constexpr int kSchemaVersion = 2;

    /**
     * @param path   Checkpoint file path.
     * @param sweep  Sweep name stamped into the file.
     * @param config Fingerprint of everything the rows depend on.
     */
    SweepCheckpoint(std::string path, std::string sweep,
                    obs::json::Value config);

    /**
     * Read rows from an existing file. Returns the number of rows
     * recovered; a missing file, wrong schema, or config-fingerprint
     * mismatch recovers nothing (the stale file is superseded on the
     * next record()). A row that decodeResult rejects is dropped with
     * a warning, so its cell is recomputed.
     */
    std::size_t load();

    /** Encoded row for @p key, or nullptr when not checkpointed. */
    const obs::json::Value *find(const std::string &key) const;

    /** Add @p row under @p key and atomically rewrite the file. */
    void record(const std::string &key, obs::json::Value row);

    const std::string &path() const { return path_; }

  private:
    void save() const; //!< callers hold mutex_
    /** The full document (schema above); callers hold mutex_. */
    obs::json::Value toJsonLocked() const;

    std::string path_;
    std::string sweep_;
    obs::json::Value config_;
    std::map<std::string, obs::json::Value> rows_;
    mutable std::mutex mutex_;
};

} // namespace resilience
} // namespace glider

#endif // GLIDER_RESILIENCE_CHECKPOINT_HH
