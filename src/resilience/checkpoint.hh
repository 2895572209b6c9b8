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
 * Rows are opaque JSON here; the runner that resumes a row decodes it
 * and recomputes any row that does not decode.
 *
 * While a sweep runs, the file is a journal: one compact header line
 * (the document above without "cells"), then one {"key", "row"} line
 * appended per completed cell, so recording a cell costs one line, not
 * a rewrite of every row. finish() (run when the sweep ends, and by the
 * destructor of an object that appended) replaces the journal with the
 * sorted document above.
 * load() reads either form; a torn line (a kill mid-append) is dropped
 * and its cell recomputed.
 *
 * Byte-identity contract: cells serialize sorted by key (not in
 * completion order), rows exclude wall-clock fields, and obs::json
 * prints doubles in shortest round-trippable form — so the checkpoint
 * written by an interrupted-then-resumed sweep is byte-identical to
 * one from an uninterrupted run. A sweep-name or config fingerprint
 * mismatch (e.g. another harness's file, or a different
 * GLIDER_ACCESSES) discards the file rather than mixing rows computed
 * by another sweep or under different settings.
 */

#ifndef GLIDER_RESILIENCE_CHECKPOINT_HH
#define GLIDER_RESILIENCE_CHECKPOINT_HH

#include <cstdint>
#include <cstdio>
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

/** Member @p key of encoded row @p row, for row decoders.
 *  @throws std::runtime_error when @p row lacks it. */
const obs::json::Value &rowField(const obs::json::Value &row,
                                 const char *key);

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

    /** Runs finish() if this object appended to the journal. */
    ~SweepCheckpoint();

    SweepCheckpoint(const SweepCheckpoint &) = delete;
    SweepCheckpoint &operator=(const SweepCheckpoint &) = delete;

    /**
     * Read rows from an existing file. Returns the number of rows
     * recovered; a missing file, wrong schema, another sweep's name,
     * or a config-fingerprint mismatch recovers nothing (the stale
     * file is superseded on the next record()). Rows are not decoded
     * here; the runner recomputes any it cannot decode.
     */
    std::size_t load();

    /** Encoded row for @p key, or nullptr when not checkpointed. */
    const obs::json::Value *find(const std::string &key) const;

    /** Add @p row under @p key and append it to the journal. */
    void record(const std::string &key, obs::json::Value row);

    /**
     * Replace the journal with the sorted document, atomically. A no-op
     * when the file already is that document.
     */
    void finish();

    const std::string &path() const { return path_; }

    /** Bytes this object has written to disk so far. */
    std::uint64_t bytesWritten() const;

  private:
    /** The header, with every row when @p cells; callers hold mutex_. */
    obs::json::Value toJsonLocked(bool cells) const;
    /** Atomically replace the file with @p text; callers hold mutex_. */
    bool replaceLocked(const std::string &text);
    /** Rewrite the file as a journal of rows_ and keep it open for
     *  appending; callers hold mutex_. */
    void openJournalLocked();
    void closeJournalLocked();

    std::string path_;
    std::string sweep_;
    obs::json::Value config_;
    std::map<std::string, obs::json::Value> rows_;
    std::FILE *journal_ = nullptr; //!< open while this run appends
    bool journaled_ = false; //!< the file is a journal of rows_
    std::uint64_t bytes_written_ = 0;
    mutable std::mutex mutex_;
};

} // namespace resilience
} // namespace glider

#endif // GLIDER_RESILIENCE_CHECKPOINT_HH
