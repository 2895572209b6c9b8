/**
 * @file
 * Per-cell fault containment for the experiment harness.
 *
 * runCell() is the boundary between one sweep cell and the rest of a
 * fan-out: any exception the cell throws — including
 * verify::InvariantViolation from a checked policy and CancelledError
 * from a blown soft deadline — is caught here, the cell is retried
 * with exponential backoff up to a bounded attempt budget, and a cell
 * that exhausts its budget is returned as Quarantined with the error
 * string instead of aborting sibling cells. Each attempt runs under a
 * fresh CancelToken chained to the sweep-wide token, so a pool-level
 * cancel stops retries immediately and is never retried away.
 */

#ifndef GLIDER_RESILIENCE_RECOVERY_HH
#define GLIDER_RESILIENCE_RECOVERY_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/cancellation.hh"
#include "common/env_registry.hh"
#include "fault_inject.hh"

namespace glider {
namespace resilience {

/** How a cell's row was obtained (or not). */
enum class CellStatus {
    Ok,         //!< computed this run
    Resumed,    //!< replayed from a sweep checkpoint
    Quarantined //!< every attempt failed; row is absent
};

/** Retry/deadline budget for one cell. */
struct RecoveryOptions
{
    int max_attempts = 3;                //!< 1 = no retry
    std::uint64_t deadline_ms = 0;       //!< per-attempt; 0 = none
    std::uint64_t backoff_initial_ms = 10;
    std::uint64_t backoff_max_ms = 1000;

    /**
     * Env-tuned budget: GLIDER_CELL_RETRIES (extra attempts after the
     * first, default 2) and GLIDER_CELL_DEADLINE_MS (default 0, off).
     */
    static RecoveryOptions
    fromEnv()
    {
        RecoveryOptions opts;
        opts.max_attempts =
            1 + static_cast<int>(env::u64(env::Knob::CellRetries));
        if (opts.max_attempts < 1)
            opts.max_attempts = 1;
        opts.deadline_ms = env::u64(env::Knob::CellDeadlineMs);
        return opts;
    }
};

/** Outcome of running one cell under fault containment. */
template <typename R>
struct CellResult
{
    std::optional<R> value;  //!< present unless Quarantined
    CellStatus status = CellStatus::Quarantined;
    std::string error;       //!< last failure (what()), if any
    int attempts = 0;        //!< attempts actually made
};

/**
 * Run @p fn (signature R(const CancelToken &)) as one isolated cell.
 *
 * @param key    Cell identity, used by @p faults to target clauses.
 * @param faults Optional fault-injection plan applied per attempt.
 * @param parent Optional sweep-wide token; its cancellation stops the
 *               attempt loop (a cancelled sweep is not retryable).
 */
template <typename R, typename Fn>
CellResult<R>
runCell(const std::string &key, Fn &&fn,
        const RecoveryOptions &opts = RecoveryOptions(),
        const FaultPlan *faults = nullptr,
        const CancelToken *parent = nullptr)
{
    CellResult<R> out;
    std::uint64_t backoff_ms = opts.backoff_initial_ms;
    int max_attempts = opts.max_attempts < 1 ? 1 : opts.max_attempts;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        out.attempts = attempt;
        CancelToken token(parent);
        if (opts.deadline_ms > 0)
            token.setDeadlineMs(opts.deadline_ms);
        try {
            if (faults)
                faults->apply(key, attempt, token);
            out.value = fn(static_cast<const CancelToken &>(token));
            out.status = CellStatus::Ok;
            return out;
        } catch (const std::exception &e) {
            // Covers verify::InvariantViolation, CancelledError,
            // FaultInjected, and anything std-derived the cell threw.
            out.error = e.what();
        } catch (...) {
            out.error = "non-standard exception";
        }
        if (parent && parent->cancelled())
            break; // sweep-wide cancel: do not retry
        if (attempt < max_attempts) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            backoff_ms *= 2;
            if (backoff_ms > opts.backoff_max_ms)
                backoff_ms = opts.backoff_max_ms;
        }
    }
    out.status = CellStatus::Quarantined;
    return out;
}

} // namespace resilience
} // namespace glider

#endif // GLIDER_RESILIENCE_RECOVERY_HH
