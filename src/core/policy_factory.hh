/**
 * @file
 * Name-based construction of every replacement policy in the repo —
 * the lineup of the paper's evaluation plus the extra baselines —
 * used by the benchmark harness and the examples.
 */

#ifndef GLIDER_CORE_POLICY_FACTORY_HH
#define GLIDER_CORE_POLICY_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "cachesim/replacement.hh"

namespace glider {
namespace core {

/** All constructible policy names. */
std::vector<std::string> policyNames();

/**
 * Construct a policy from a spec: a policyNames() entry, or Glider
 * with GliderConfig keys in braces, separated by ';' (',' separates
 * policies on command lines):
 *   pchr=K        PCHR size k, 1..kIsvmMaxHistory (default 5)
 *   threshold=T   fixed training threshold T >= 0 (default adaptive)
 *   confidence=C  §4.4 insertion confidence C >= 0 (default 60)
 * e.g. "Glider{pchr=3;threshold=30}". The policy's name() is the
 * canonical spec. Fatal on an unknown name, key or value.
 */
std::unique_ptr<sim::ReplacementPolicy>
makePolicy(const std::string &spec);

/**
 * Canonical form of @p spec, the name() of the policy it builds:
 * keys print in the order above and keys equal to their default are
 * dropped, so "Glider{pchr=5}" is "Glider". Fatal like makePolicy.
 */
std::string canonicalPolicySpec(const std::string &spec);

/** The paper's Figure 11–13 lineup: Hawkeye, MPPPB, SHiP++, Glider. */
std::vector<std::string> paperLineup();

/**
 * The policy zoo (ROADMAP bullet 3): FRD, MUSTACHE, COALESCE, and
 * the two cheap heuristic baselines — the lineup of the adversarial
 * scenario grid in fig11.
 */
std::vector<std::string> zooLineup();

} // namespace core
} // namespace glider

#endif // GLIDER_CORE_POLICY_FACTORY_HH
