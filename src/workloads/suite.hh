/**
 * @file
 * The evaluation workload suite: the 22 SPEC-derived and 12
 * OpenCV-derived workloads of Table 3, the 25 co-running pairs of
 * Fig. 10/11, and the 4-core groups of Fig. 16.
 */

#ifndef OCCAMY_WORKLOADS_SUITE_HH
#define OCCAMY_WORKLOADS_SUITE_HH

#include <string>
#include <vector>

#include "kir/kir.hh"
#include "workloads/phases.hh"

namespace occamy::workloads
{

/** One workload: a named ordered list of phases. */
struct Workload
{
    std::string name;
    std::vector<kir::Loop> loops;

    /** True if every phase is memory-intensive (classification used to
     *  place memory workloads on Core0 per Section 7.1). */
    bool memoryIntensive = false;
};

/** Table 3 SPEC workload WLn (n in 1..22). */
Workload specWorkload(unsigned n);

/** Table 3 OpenCV workload WLn (n in 1..12). */
Workload opencvWorkload(unsigned n);

/** Workload by catalog token: "CVn" (OpenCV), "WLn" or a bare "n"
 *  (SPEC). Throws std::out_of_range on an unknown id. */
Workload lookupWorkload(const std::string &token);

/** A co-running pair, placed memory-first per the paper. */
struct Pair
{
    std::string label;       ///< e.g. "1+13" as in Fig. 10's x-axis.
    Workload core0;          ///< Memory-intensive side.
    Workload core1;          ///< Compute-intensive side.
};

/** The 16 SPEC pairs of Fig. 10, in x-axis order. */
std::vector<Pair> specPairs();

/** The 9 OpenCV pairs of Fig. 10, in x-axis order. */
std::vector<Pair> opencvPairs();

/** All 25 pairs (SPEC then OpenCV). */
std::vector<Pair> allPairs();

/** One 4-core group of Fig. 16. */
struct Group
{
    std::string label;       ///< e.g. "WL15+6+15+16".
    std::vector<Workload> workloads;   ///< One per core, 4 entries.
};

/** The four 4-core groups of Fig. 16. */
std::vector<Group> scalabilityGroups();

} // namespace occamy::workloads

#endif // OCCAMY_WORKLOADS_SUITE_HH
