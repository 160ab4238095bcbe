#include "workloads/suite.hh"

#include <cstdlib>
#include <stdexcept>

namespace occamy::workloads
{

namespace
{

Workload
make(std::string name, const std::vector<std::string> &phase_names,
     bool memory_intensive)
{
    Workload w;
    w.name = std::move(name);
    for (const auto &p : phase_names) {
        // Compute phases inside multi-phase workloads run a shorter
        // trip so the workload finishes before its single-phase
        // compute partner and releases its lanes (the paper's Case 2
        // dynamics depend on this ordering).
        const PhaseSpec &spec = phaseSpec(p);
        const bool shorten = phase_names.size() > 1 &&
                             spec.level != MemLevel::Dram;
        w.loops.push_back(makeNamedPhase(p, shorten ? 196608 : 0));
    }
    w.memoryIntensive = memory_intensive;
    return w;
}

} // namespace

Workload
specWorkload(unsigned n)
{
    switch (n) {
      case 1: return make("WL1", {"select_atoms2", "step3d_uv2"}, true);
      case 2: return make("WL2", {"select_atoms1", "step3d_uv4"}, true);
      case 3: return make("WL3", {"rhs3d1", "select_atoms3"}, true);
      case 4: return make("WL4", {"select_atoms4", "select_atoms5"}, false);
      case 5: return make("WL5", {"step3d_uv1", "rhs3d7"}, true);
      case 6: return make("WL6", {"rho_eos1", "rho_eos4"}, true);
      case 7: return make("WL7", {"rho_eos5", "select_atoms3"}, true);
      case 8: return make("WL8", {"rho_eos2", "rho_eos6"}, true);
      case 9: return make("WL9", {"wsm53", "select_atoms5b"}, false);
      case 10: return make("WL10", {"rhs3d1", "rho_eos4"}, true);
      case 11: return make("WL11", {"step2d1", "step2d6"}, true);
      case 12: return make("WL12", {"step3d_uv3", "step3d_uv1"}, true);
      case 13: return make("WL13", {"set_vbc2"}, false);
      case 14: return make("WL14", {"set_vbc1"}, false);
      case 15: return make("WL15", {"rhs3d5"}, false);
      case 16: return make("WL16", {"wsm51"}, false);
      case 17: return make("WL17", {"wsm52"}, false);
      case 18: return make("WL18", {"wsm53"}, false);
      case 19: return make("WL19", {"rho_eos2"}, true);
      case 20: return make("WL20", {"sff2", "sff5"}, true);
      case 21: return make("WL21", {"sff5", "rho_eos6"}, true);
      case 22: return make("WL22", {"rho_eos2b", "step3d_uv1"}, true);
      default:
        throw std::out_of_range("SPEC workload id out of range");
    }
}

Workload
opencvWorkload(unsigned n)
{
    switch (n) {
      case 1: return make("CV1", {"fitLine2D"}, false);
      case 2: return make("CV2", {"addWeight", "compare"}, true);
      case 3: return make("CV3", {"rgb2xyz"}, false);
      case 4: return make("CV4", {"calcDist3D"}, false);
      case 5: return make("CV5", {"rgb2hsv"}, false);
      case 6: return make("CV6", {"accProd", "dotProd"}, true);
      case 7: return make("CV7", {"normL1", "normL2"}, true);
      case 8: return make("CV8", {"compare", "accProd"}, true);
      case 9: return make("CV9", {"blend", "fitLine3D"}, true);
      case 10: return make("CV10", {"dotProd", "addWeight"}, true);
      case 11: return make("CV11", {"blend", "compare"}, true);
      case 12: return make("CV12", {"rgb2ycrcb", "rgb2gray"}, true);
      default:
        throw std::out_of_range("OpenCV workload id out of range");
    }
}

Workload
lookupWorkload(const std::string &token)
{
    if (token.rfind("CV", 0) == 0)
        return opencvWorkload(
            static_cast<unsigned>(std::atoi(token.c_str() + 2)));
    if (token.rfind("WL", 0) == 0)
        return specWorkload(
            static_cast<unsigned>(std::atoi(token.c_str() + 2)));
    return specWorkload(static_cast<unsigned>(std::atoi(token.c_str())));
}

std::vector<Pair>
specPairs()
{
    // Fig. 10 x-axis order; memory-intensive workload on Core0.
    static const std::pair<unsigned, unsigned> ids[] = {
        {1, 13}, {2, 14}, {3, 4}, {5, 15}, {6, 16}, {8, 17}, {7, 18},
        {20, 9}, {21, 17}, {20, 17}, {10, 16}, {11, 14}, {22, 15},
        {4, 14}, {9, 13}, {12, 19},
    };
    std::vector<Pair> pairs;
    for (auto [a, b] : ids) {
        Pair p;
        p.label = std::to_string(a) + "+" + std::to_string(b);
        p.core0 = specWorkload(a);
        p.core1 = specWorkload(b);
        pairs.push_back(std::move(p));
    }
    return pairs;
}

std::vector<Pair>
opencvPairs()
{
    static const std::pair<unsigned, unsigned> ids[] = {
        {6, 1}, {2, 1}, {7, 3}, {8, 3}, {9, 4}, {10, 4}, {11, 5},
        {12, 5}, {11, 1},
    };
    std::vector<Pair> pairs;
    for (auto [a, b] : ids) {
        Pair p;
        p.label = std::to_string(a) + "+" + std::to_string(b);
        p.core0 = opencvWorkload(a);
        p.core1 = opencvWorkload(b);
        pairs.push_back(std::move(p));
    }
    return pairs;
}

std::vector<Pair>
allPairs()
{
    std::vector<Pair> pairs = specPairs();
    for (auto &p : opencvPairs())
        pairs.push_back(std::move(p));
    return pairs;
}

std::vector<Group>
scalabilityGroups()
{
    // Fig. 16: memory-intensive workloads on Core0/Core1, compute on
    // Core2/Core3 for the first three groups; the last group runs three
    // memory workloads and one compute workload.
    std::vector<Group> groups;
    auto add = [&](std::string label, std::vector<unsigned> ids) {
        Group g;
        g.label = std::move(label);
        for (unsigned id : ids)
            g.workloads.push_back(specWorkload(id));
        groups.push_back(std::move(g));
    };
    add("WL5+6+15+16", {5, 6, 15, 16});
    add("WL21+20+17+17", {21, 20, 17, 17});
    add("WL10+22+16+15", {10, 22, 16, 15});
    add("WL7+19+20+14", {7, 19, 20, 14});
    return groups;
}

} // namespace occamy::workloads
