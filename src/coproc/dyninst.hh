/**
 * @file
 * Dynamic instructions: one instance of a static instruction in flight
 * through the co-processor pipeline, carrying renamed registers and
 * timing state.
 */

#ifndef OCCAMY_COPROC_DYNINST_HH
#define OCCAMY_COPROC_DYNINST_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "isa/inst.hh"

namespace occamy
{

/** One in-flight dynamic instruction. */
struct DynInst
{
    Opcode op = Opcode::SNop;
    CoreId core = 0;
    SeqNum seq = 0;

    /** Phase index within the workload, for per-phase statistics. */
    std::uint16_t phaseId = 0;

    // Architectural registers (after reduction-accumulator rotation).
    std::int16_t dstArch = -1;
    std::array<std::int16_t, 3> srcArch{-1, -1, -1};
    std::uint8_t nsrc = 0;

    /** Vector length (ExeBUs) this instruction executes under. */
    std::uint16_t vlBus = 0;

    /** Active 32-bit lane slots (<= vlBus * 4), for busy-lane
     *  accounting; an f64 element occupies two, an f16 element half. */
    std::uint16_t activeLanes = 0;

    /** Active data elements this iteration (predication-aware). */
    std::uint16_t activeElems = 0;

    // Memory operands.
    Addr addr = 0;
    std::uint32_t bytes = 0;
    std::int32_t stride = 1;        ///< Element stride (gather if > 1).
    std::uint8_t elemBytes = 4;

    // EM-SIMD payload.
    PhaseOI oi;
    std::uint32_t imm = 0;
    bool vlFromDecision = false;

    // Pipeline bookkeeping.
    std::int32_t dstPhys = -1;
    std::int32_t prevPhys = -1;
    std::array<std::int32_t, 3> srcPhys{-1, -1, -1};
    Cycle enqueueCycle = 0;
    Cycle readyCycle = kCycleNever;    ///< Writeback / completion time.
    bool issued = false;
    bool completed = false;

    /** Sources whose producer has not issued yet (derived issue-queue
     *  tracking, never checkpointed; see CoProcessor::track). */
    std::uint8_t pendingSrcs = 0;

    bool isCompute() const { return isVCompute(op); }
    bool isMem() const { return isVMem(op); }
    bool isStore() const { return op == Opcode::VStore; }
};

} // namespace occamy

#endif // OCCAMY_COPROC_DYNINST_HH
