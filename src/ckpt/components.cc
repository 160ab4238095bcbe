/**
 * @file
 * Checkpoint io bodies for the header-only components (Lsu,
 * ResourceTable, ConfigTable, LaneMgr).  Grouping them in one
 * translation unit keeps those headers free of the serialization
 * machinery; classes with their own .cc file define io there.
 */

#include "ckpt/ckpt.hh"
#include "coproc/lsu.hh"
#include "coproc/tables.hh"
#include "lanemgr/lanemgr.hh"

namespace occamy
{

template <class Ar>
[[gnu::cold]] void
Lsu::io(Ar &ar)
{
    ar.section("lsu");
    ckpt::heap(ar, lq_);
    ckpt::heap(ar, sq_);
    if constexpr (Ar::kLoading)
        ckpt::Reader::check(lq_.size() <= lq_capacity_ &&
                                sq_.size() <= sq_capacity_,
                            "checkpoint LSU occupancy exceeds queue capacity");
    ar.u64(loads_);
    ar.u64(stores_);
}
OCCAMY_CKPT_IO(Lsu);

template <class Ar>
[[gnu::cold]] void
ResourceTable::io(Ar &ar)
{
    ar.section("rt");
    ar.len(core_.size(), "checkpoint resource table core count mismatch");
    for (PerCore &pc : core_) {
        pc.oi.io(ar);
        ar.u32(pc.decision);
        ar.u32(pc.vl);
        ar.b(pc.status);
    }
    ar.u32(al_);
    std::uint32_t total = total_;
    ar.u32(total);
    if constexpr (Ar::kLoading)
        ckpt::Reader::check(total == total_,
                            "checkpoint resource table ExeBU count mismatch");
    ar.u32(faulted_);
}
OCCAMY_CKPT_IO(ResourceTable);

template <class Ar>
[[gnu::cold]] void
ConfigTable::io(Ar &ar)
{
    ar.section("cfgtbl");
    ar.len(owner_.size(), "checkpoint config table size mismatch");
    for (CoreId &o : owner_)
        ar.u16(o);
}
OCCAMY_CKPT_IO(ConfigTable);

template <class Ar>
[[gnu::cold]] void
LaneMgr::io(Ar &ar)
{
    ar.section("lanemgr");
    ar.u64(plan_ready_at_);
    ar.u32(total_bus_);
    ar.u64(plans_made_);
}
OCCAMY_CKPT_IO(LaneMgr);

} // namespace occamy
