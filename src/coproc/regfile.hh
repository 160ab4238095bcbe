/**
 * @file
 * Physical vector register file model (Section 4.2.1).
 *
 * The register file is built from N RegBlks of 160 128-bit physical
 * registers each. Under spatial sharing (Private / VLS / Occamy) a core
 * owning l RegBlks renames each architectural z-register to one *row*
 * (the same entry index in each of its l blocks), so its in-flight
 * renaming capacity is 160 entries independent of vector width — the
 * property that lets spatial sharing split single VRF entries between
 * cores.
 *
 * Under temporal sharing (FTS) every register is full-width across all
 * N blocks, and all cores allocate from one shared pool of 160 rows:
 * the physical-register pressure that causes FTS's renaming stalls
 * (Fig. 13) falls out of this structure.
 */

#ifndef OCCAMY_COPROC_REGFILE_HH
#define OCCAMY_COPROC_REGFILE_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace occamy
{

/** Physical register allocation, mapping and readiness tracking. */
class RegFileModel
{
  public:
    explicit RegFileModel(const MachineConfig &cfg);

    /**
     * Allocate a physical row for core @p c.
     * @return global physical id, or -1 if the (per-core or shared)
     *         freelist is empty.
     */
    std::int32_t alloc(CoreId c);

    /** Return a physical row to its freelist. */
    void free(CoreId c, std::int32_t phys);

    /** Current mapping of an architectural register (-1 if unmapped). */
    std::int32_t mapping(CoreId c, int arch) const;

    /** Install a new mapping; @return the previous physical row
     *  (-1 if none), which the ROB frees at commit. */
    std::int32_t rename(CoreId c, int arch, std::int32_t phys);

    /** Physical rows across all pools (global ids 0 .. physCount()-1). */
    std::size_t physCount() const { return ready_.size(); }

    /** Readiness of a physical row's value. */
    Cycle readyAt(std::int32_t phys) const { return ready_.at(phys); }
    void setReadyAt(std::int32_t phys, Cycle c) { ready_.at(phys) = c; }

    /**
     * Vector-length reconfiguration dropped core @p c's register
     * contents (Section 4.2.2): clear its mappings and reclaim every
     * row it held. Only legal when the core's pipeline is drained.
     */
    void resetCore(CoreId c);

    /** Free rows currently available to core @p c. */
    unsigned freeCount(CoreId c) const;

    /** True when the file is one shared full-width pool (FTS). */
    bool shared() const { return shared_; }

    /** Checkpoint state. Freelists are order-sensitive (alloc pops
     *  from the back), so they round-trip verbatim, not sorted. */
    template <class Ar> void io(Ar &ar);

  private:
    bool shared_;
    unsigned rows_;                 ///< Rows per pool.
    unsigned pools_;                ///< 1 if shared, else one per core.

    unsigned poolOf(CoreId c) const { return shared_ ? 0 : c; }

    /** Per pool: freelist of row ids (global ids = pool*rows_ + row). */
    std::vector<std::vector<std::int32_t>> freelist_;

    /** Per core: arch -> phys map. */
    std::vector<std::vector<std::int32_t>> map_;

    /** Global phys id -> value-ready cycle. */
    std::vector<Cycle> ready_;

    /** Global phys id -> owning core (for resetCore in shared mode). */
    std::vector<CoreId> held_by_;
};

} // namespace occamy

#endif // OCCAMY_COPROC_REGFILE_HH
