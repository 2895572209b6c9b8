/**
 * @file
 * LLC access-stream extraction.
 *
 * The paper trains and labels on traces of *LLC* accesses generated
 * by running applications through ChampSim (§5.1). Because the
 * private L1/L2 levels use a fixed LRU policy and the hierarchy is
 * non-inclusive, the LLC access stream is identical regardless of
 * the LLC replacement policy under study — so it can be extracted
 * once per workload and reused by every offline model and by the
 * BeladyPolicy oracle rows. The extraction selects the LLC-bound
 * records from sim::PrivateFilter's memoised codes, the same pass the
 * single-core driver replays.
 */

#ifndef GLIDER_OPT_LLC_STREAM_HH
#define GLIDER_OPT_LLC_STREAM_HH

#include "cachesim/cache_config.hh"
#include "traces/trace.hh"

namespace glider {
namespace opt {

/**
 * The accesses of @p cpu_trace that reach the LLC behind @p config's
 * L1 and L2 (per Table 1, LRU), in order.
 */
traces::Trace extractLlcStream(const traces::Trace &cpu_trace,
                               const sim::HierarchyConfig &config
                               = sim::HierarchyConfig());

} // namespace opt
} // namespace glider

#endif // GLIDER_OPT_LLC_STREAM_HH
