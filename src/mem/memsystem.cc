#include "mem/memsystem.hh"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "ckpt/ckpt.hh"
#include "fault/injector.hh"

namespace occamy
{

MemSystem::MemSystem(const MachineConfig &cfg)
    : cfg_(cfg),
      vec_cache_("vec_cache", cfg.vecCache),
      l2_("l2", cfg.l2),
      dram_bpc_(cfg.dramBytesPerCycle)
{
}

unsigned
MemSystem::dramLatencyAt(Cycle now) const
{
    if (!injector_)
        return cfg_.dramLatency;
    return cfg_.dramLatency + injector_->dramExtraLatency(now);
}

unsigned
MemSystem::dramBpcAt(Cycle now) const
{
    if (!injector_)
        return dram_bpc_;
    const unsigned div = std::max(1u, injector_->dramBandwidthDivisor(now));
    return std::max(1u, dram_bpc_ / div);
}

void
MemSystem::recordDram(Cycle now, obs::EventKind kind, Addr line_addr,
                      unsigned bytes, Cycle ready) const
{
    obs::note(sink_, kind, now, kNoCore, line_addr, bytes,
              static_cast<double>(ready));
}

Cycle
MemSystem::reserve(Cycle &busy_until, unsigned bytes,
                   unsigned bytes_per_cycle, Cycle now)
{
    assert(bytes_per_cycle > 0);
    const Cycle start = std::max(now, busy_until);
    const Cycle busy = (bytes + bytes_per_cycle - 1) / bytes_per_cycle;
    busy_until = start + busy;
    return start;
}

Cycle
MemSystem::lineReady(Addr line, Cycle now)
{
    auto it = line_ready_.find(line);
    if (it == line_ready_.end())
        return 0;
    const Cycle ready = it->second;
    if (ready <= now)
        line_ready_.erase(it);
    return ready;
}

void
MemSystem::maybePrefetch(Addr trigger_line, Cycle now)
{
    if (cfg_.prefetchDegree == 0)
        return;
    const unsigned line = cfg_.vecCache.lineBytes;
    const Addr region = trigger_line / 4096;    // 4 KB stream region.

    auto [it, inserted] = frontier_.try_emplace(region, trigger_line);
    Addr frontier = inserted ? trigger_line : it->second;
    const Addr target =
        trigger_line + static_cast<Addr>(cfg_.prefetchDegree) * line;
    if (frontier >= target)
        return;

    for (Addr pf = std::max(frontier + line, trigger_line + line);
         pf <= target; pf += line) {
        if (vec_cache_.contains(pf) || l2_.contains(pf))
            continue;
        const Cycle start =
            reserve(dram_busy_until_, line, dramBpcAt(now), now);
        dram_bytes_ += line;
        ++prefetches_;
        line_ready_[pf] = start + dramLatencyAt(now);
        pending_fills_.push(start + dramLatencyAt(now));
        recordDram(now, obs::EventKind::DramRead, pf, line,
                   start + dramLatencyAt(now));
        // Prefetch into L2 only: demand accesses pull lines into the
        // VecCache, so streams do not flush co-runners' resident sets.
        CacheAccessResult pr = l2_.access(pf, /*is_write=*/false);
        if (pr.writeback)
            reserve(dram_busy_until_, line, dramBpcAt(now), start);
    }
    it->second = target;
}

Cycle
MemSystem::accessLine(Addr line_addr, bool is_write, Cycle now,
                      Cycle vec_done)
{
    const unsigned line = cfg_.vecCache.lineBytes;

    CacheAccessResult vc = vec_cache_.access(line_addr, is_write);
    if (vc.hit) {
        // Keep the stream frontier running ahead of the demand pointer.
        maybePrefetch(line_addr, now);
        return std::max(vec_done, lineReady(line_addr, now));
    }

    // Dirty victim from VecCache consumes L2 bandwidth but is off the
    // critical path of this request.
    if (vc.writeback)
        reserve(l2_busy_until_, line, cfg_.l2.bytesPerCycle, vec_done);

    // Miss in VecCache: go to the unified L2.
    const Cycle l2_start =
        reserve(l2_busy_until_, line, cfg_.l2.bytesPerCycle, vec_done);
    const Cycle l2_done = l2_start + cfg_.l2.latency;

    CacheAccessResult l2r = l2_.access(line_addr, is_write);
    if (l2r.hit) {
        maybePrefetch(line_addr, now);
        return std::max(l2_done, lineReady(line_addr, now));
    }

    if (l2r.writeback) {
        reserve(dram_busy_until_, line, dramBpcAt(now), l2_done);
        dram_bytes_ += line;
        recordDram(now, obs::EventKind::DramWrite, l2r.victimLine, line,
                   l2_done);
    }

    // Miss in L2: DRAM, bandwidth-limited at 64 GB/s (32 B/cycle @2 GHz).
    const Cycle dram_start =
        reserve(dram_busy_until_, line, dramBpcAt(now), l2_done);
    ++dram_reads_;
    dram_bytes_ += line;
    const Cycle ready = dram_start + dramLatencyAt(now);
    line_ready_[line_addr] = ready;
    pending_fills_.push(ready);
    recordDram(now, obs::EventKind::DramRead, line_addr, line, ready);
    maybePrefetch(line_addr, now);
    return ready;
}

MemAccessResult
MemSystem::access(Addr addr, unsigned bytes, bool is_write, Cycle now)
{
    assert(bytes > 0);
    ++accesses_;
    const unsigned line = cfg_.vecCache.lineBytes;
    const Addr first = addr / line;
    const Addr last = (addr + bytes - 1) / line;

    // Port occupancy is proportional to the access width (the 2x64 B
    // VecCache ports move B bytes in B/128 cycles).
    const double start = std::max(static_cast<double>(now),
                                  vec_busy_until_);
    vec_busy_until_ =
        start + static_cast<double>(bytes) / cfg_.vecCache.bytesPerCycle;
    const Cycle vec_done =
        static_cast<Cycle>(start) + cfg_.vecCache.latency;

    Cycle done = now;
    for (Addr l = first; l <= last; ++l)
        done = std::max(done, accessLine(l * line, is_write, now,
                                         vec_done));

    MemAccessResult res;
    res.queueRelease = done;
    // Stores retire into the store buffer once the VecCache port
    // accepted them; the fetch-for-ownership only holds the STQ entry.
    res.dataReady = is_write ? now + cfg_.vecCache.latency : done;
    return res;
}

MemAccessResult
MemSystem::accessStrided(Addr addr, unsigned elem_bytes,
                         std::int64_t stride, unsigned count,
                         bool is_write, Cycle now)
{
    assert(count > 0 && elem_bytes > 0);
    ++accesses_;
    const unsigned line = cfg_.vecCache.lineBytes;

    // Gathers move one element per port beat (16 B of port time each),
    // the classic SVE gather cost.
    const double start =
        std::max(static_cast<double>(now), vec_busy_until_);
    vec_busy_until_ = start + count * 16.0 /
                              cfg_.vecCache.bytesPerCycle;
    const Cycle vec_done =
        static_cast<Cycle>(start) + cfg_.vecCache.latency +
        (count * 16 + cfg_.vecCache.bytesPerCycle - 1) /
            cfg_.vecCache.bytesPerCycle;

    // Service every distinct line touched by the element addresses.
    Cycle done = now;
    Addr prev_line = ~static_cast<Addr>(0);
    for (unsigned k = 0; k < count; ++k) {
        const Addr a =
            addr + static_cast<Addr>(static_cast<std::int64_t>(k) *
                                     stride * elem_bytes);
        const Addr la = a / line * line;
        if (la == prev_line)
            continue;
        prev_line = la;
        done = std::max(done, accessLine(la, is_write, now, vec_done));
    }

    MemAccessResult res;
    res.queueRelease = done;
    res.dataReady = is_write ? vec_done : done;
    return res;
}

Cycle
MemSystem::scalarAccess(Addr addr, bool is_write, Cycle now)
{
    // Scalar references ride the same L2/DRAM path; the private scalar
    // L1s from Table 4 are approximated by the VecCache lookup since the
    // kernels issue almost no scalar memory traffic.
    return accessLine((addr / cfg_.l2.lineBytes) * cfg_.l2.lineBytes,
                      is_write, now, now + cfg_.vecCache.latency);
}

void
MemSystem::reset()
{
    vec_cache_.flush();
    l2_.flush();
    vec_busy_until_ = 0.0;
    l2_busy_until_ = 0;
    dram_busy_until_ = 0;
    line_ready_.clear();
    frontier_.clear();
    pending_fills_ = {};
}

Cycle
MemSystem::nextEventAt(Cycle now)
{
    while (!pending_fills_.empty() && pending_fills_.top() <= now)
        pending_fills_.pop();
    return pending_fills_.empty() ? kCycleNever : pending_fills_.top();
}

void
MemSystem::regStats(stats::Group &group) const
{
    vec_cache_.regStats(group);
    l2_.regStats(group);
    group.addCounter("dram.reads", &dram_reads_, "line fills from DRAM");
    group.addCounter("dram.bytes", &dram_bytes_, "bytes moved to/from DRAM");
    group.addCounter("mem.accesses", &accesses_, "vector accesses");
    group.addCounter("mem.prefetches", &prefetches_,
                     "stream-prefetched lines");
}

namespace
{

/** A hash map travels key-sorted so the byte stream is deterministic;
 *  restore re-inserts in that order. */
template <class Ar, class Map>
void
sortedMapIo(Ar &ar, Map &m)
{
    std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
        kv;
    if constexpr (!Ar::kLoading) {
        kv.assign(m.begin(), m.end());
        std::sort(kv.begin(), kv.end());
    }
    ar.seq(kv, [&](auto &e) {
        ar.u64(e.first);
        ar.u64(e.second);
    });
    if constexpr (Ar::kLoading) {
        m.clear();
        for (const auto &[k, v] : kv)
            m.emplace(k, v);
    }
}

} // namespace

template <class Ar>
[[gnu::cold]] void
MemSystem::io(Ar &ar)
{
    ar.section("mem");
    ar.f64(vec_busy_until_);
    ar.u64(l2_busy_until_);
    ar.u64(dram_busy_until_);
    sortedMapIo(ar, line_ready_);
    ckpt::heap(ar, pending_fills_);
    sortedMapIo(ar, frontier_);

    ar.u64(dram_reads_);
    ar.u64(dram_bytes_);
    ar.u64(accesses_);
    ar.u64(prefetches_);

    vec_cache_.io(ar);
    l2_.io(ar);
}
OCCAMY_CKPT_IO(MemSystem);

void
MemSystem::printState(std::ostream &os) const
{
    os << "vec_busy_until " << vec_busy_until_ << '\n'
       << "l2_busy_until " << l2_busy_until_ << '\n'
       << "dram_busy_until " << dram_busy_until_ << '\n'
       << "inflight_fills " << line_ready_.size() << '\n'
       << "stream_frontiers " << frontier_.size() << '\n'
       << "accesses " << accesses_.value() << '\n'
       << "dram_reads " << dramReads() << '\n'
       << "dram_bytes " << dramBytes() << '\n'
       << "prefetches " << prefetches() << '\n';
    vec_cache_.printState(os);
    l2_.printState(os);
}

} // namespace occamy
