/**
 * @file
 * The golden-trace regression matrix, shared by tests/test_golden.cc
 * (which compares against the pinned files in tests/golden/) and
 * tools/occamy_regen_golden.cc (which rewrites them).
 *
 * The matrix is a small pair x policy grid chosen to exercise both a
 * compute+memory pairing that triggers elastic repartitioning (6+16)
 * and one that stays stable (1+13), under the no-sharing baseline,
 * fine temporal sharing (the shared-budget round-robin issue loop),
 * static spatial sharing and the full elastic policy. The pinned
 * artifact for each cell is the canonical trace::toJson() rendering
 * of the RunResult: any behavioral drift in the simulator — timing,
 * partitioning, stats — shows up as a golden diff and must be either
 * fixed or consciously re-pinned with the regeneration tool (see
 * tools/occamy_regen_golden.cc).
 */

#ifndef OCCAMY_TESTS_GOLDEN_MATRIX_HH
#define OCCAMY_TESTS_GOLDEN_MATRIX_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace occamy::golden
{

/** Pair labels pinned in tests/golden (from the Table 3 catalog). */
inline std::vector<std::string>
goldenPairLabels()
{
    return {"6+16", "1+13"};
}

/** Policies pinned per pair. */
inline std::vector<SharingPolicy>
goldenPolicies()
{
    return {SharingPolicy::Private, SharingPolicy::Temporal,
            SharingPolicy::StaticSpatial, SharingPolicy::Elastic};
}

/** Build the job list of the matrix, pair-major like pairSweepJobs. */
inline std::vector<runner::JobSpec>
goldenJobs()
{
    const auto all = workloads::allPairs();
    std::vector<workloads::Pair> pairs;
    for (const std::string &label : goldenPairLabels()) {
        bool found = false;
        for (const auto &p : all) {
            if (p.label == label) {
                pairs.push_back(p);
                found = true;
                break;
            }
        }
        if (!found)
            throw std::runtime_error("golden pair not in catalog: " +
                                     label);
    }
    return runner::pairSweepJobs(pairs, goldenPolicies());
}

/** Golden file name for a job label: '/' becomes '_', ".json" added. */
inline std::string
goldenFileName(const std::string &label)
{
    std::string s = label;
    for (char &c : s)
        if (c == '/')
            c = '_';
    return s + ".json";
}

} // namespace occamy::golden

#endif // OCCAMY_TESTS_GOLDEN_MATRIX_HH
