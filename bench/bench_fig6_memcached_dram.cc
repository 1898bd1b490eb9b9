/**
 * @file
 * Reproduces paper Figure 6: DRAM accesses for memcached processing a
 * request stream, conventional vs HICAMP, at 16/32/64-byte lines, with
 * the HICAMP traffic split into Reads / Writes / Lookups /
 * Deallocation / RC (the figure's stack).
 *
 * Paper setup: 100 K preloaded items from Facebook page dumps, 15 K
 * requests with power-law popularity and sizes. Our corpus is the
 * synthetic web corpus (see DESIGN.md substitutions), scaled to
 * HICAMP_MC_ITEMS items (default 30000) to fit a laptop-class run;
 * the request count matches the paper's 15000.
 *
 * The HICAMP side replays through server::McStore, the store that
 * serves hicamp_server, with its default 16 shards: each GET reloads
 * one iterator register, as a serving worker does.
 */

#include <bit>
#include <cstdio>
#include <cstdlib>

#include "apps/memcached/conv_memcached.hh"
#include "bench_obs.hh"
#include "common/table.hh"
#include "server/store.hh"
#include "workloads/memcached_workload.hh"

using namespace hicamp;

namespace {

std::uint64_t
envOr(const char *name, std::uint64_t dflt)
{
    const char *v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 10) : dflt;
}

struct Row {
    std::uint64_t reads = 0, writes = 0, lookups = 0, dealloc = 0,
                  rc = 0;
    /// registry delta agreed with the raw DramStats reads
    bool selfcheckOk = true;
    std::uint64_t
    total() const
    {
        return reads + writes + lookups + dealloc + rc;
    }
};

Row
runConventional(const std::vector<WebItem> &items,
                const std::vector<McRequest> &reqs, unsigned ls)
{
    ConvMemcached mc(ls, items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        mc.set(items[i].key, items[i].payload.size());
    std::uint64_t base_r = mc.hierarchy().dramReads();
    std::uint64_t base_w = mc.hierarchy().dramWrites();
    for (const auto &r : reqs) {
        const std::string &key = items[r.itemIndex].key;
        switch (r.op) {
          case McRequest::Op::Get:
            mc.get(key);
            break;
          case McRequest::Op::Set:
            mc.set(key, r.newValue.size());
            break;
          case McRequest::Op::Delete:
            mc.del(key);
            break;
        }
    }
    Row row;
    row.reads = mc.hierarchy().dramReads() - base_r;
    row.writes = mc.hierarchy().dramWrites() - base_w;
    return row;
}

Row
runHicamp(const std::vector<WebItem> &items,
          const std::vector<McRequest> &reqs, unsigned ls,
          obs::MetricsSnapshot *delta_out)
{
    MemoryConfig cfg;
    cfg.lineBytes = ls;
    // Size the store for the corpus (12 data lines per bucket).
    std::uint64_t need =
        WebCorpus::totalBytes(items) * 3 / ls / 12 + (1 << 14);
    cfg.numBuckets = std::bit_ceil(need);
    Hicamp hc(cfg);
    server::McStore mc(hc);
    IteratorRegister reg(hc.mem, hc.vsm);
    for (const auto &it : items)
        mc.set(it.key, 0, it.payload);
    // Warmup writebacks complete uncounted; the counters are NOT
    // reset — the measured phase is the registry delta below.
    hc.mem.flushTraffic();
    const DramStats &d = hc.mem.dram();
    const std::uint64_t base[] = {d.reads(), d.writes(), d.lookups(),
                                  d.deallocs(), d.refcounts()};
    bench::Phase phase(hc.mem.metrics(), ls);
    for (const auto &r : reqs) {
        const std::string &key = items[r.itemIndex].key;
        switch (r.op) {
          case McRequest::Op::Get:
            mc.get(reg, key);
            break;
          case McRequest::Op::Set:
            mc.set(key, 0, r.newValue);
            break;
          case McRequest::Op::Delete:
            mc.erase(key);
            break;
        }
    }
    const obs::MetricsSnapshot delta = phase.delta();
    Row row{d.reads() - base[0], d.writes() - base[1],
            d.lookups() - base[2], d.deallocs() - base[3],
            d.refcounts() - base[4]};
    // Two independent paths to the same counters — the raw DramStats
    // reads above and the registry's per-category delta — must agree
    // exactly, or the metrics plumbing is broken.
    row.selfcheckOk = delta.counter("dram.read") == row.reads &&
                      delta.counter("dram.write") == row.writes &&
                      delta.counter("dram.lookup") == row.lookups &&
                      delta.counter("dram.dealloc") == row.dealloc &&
                      delta.counter("dram.refcount") == row.rc;
    if (delta_out) {
        *delta_out = delta;
        delta_out->registry = strfmt("fig6.measured.ls%u", ls);
    }
    return row;
}

} // namespace

int
main()
{
    WebCorpus::Params cp;
    cp.kind = WebCorpus::Kind::Pages;
    cp.numItems = envOr("HICAMP_MC_ITEMS", 30000);
    cp.minBytes = 256;
    cp.maxBytes = 16384;
    cp.sizeAlpha = 0.9;
    cp.seed = 7;
    auto items = WebCorpus::generate(cp);

    McWorkloadParams wp;
    wp.numRequests = envOr("HICAMP_MC_REQUESTS", 15000);
    auto reqs = generateMcRequests(items, wp);

    std::printf("== Figure 6: memcached DRAM accesses "
                "(%llu items preloaded, %llu requests) ==\n",
                static_cast<unsigned long long>(items.size()),
                static_cast<unsigned long long>(reqs.size()));
    std::printf("corpus bytes: %.1f MB\n\n",
                static_cast<double>(WebCorpus::totalBytes(items)) / 1e6);

    Table t({"line size", "impl", "Reads", "Writes", "Lookups",
             "Dealloc", "RC", "Total", "HICAMP/Conv"});
    bool selfcheck_ok = true;
    obs::MetricsSnapshot last_delta;
    for (unsigned ls : {16u, 32u, 64u}) {
        Row conv = runConventional(items, reqs, ls);
        Row hic = runHicamp(items, reqs, ls, &last_delta);
        selfcheck_ok = selfcheck_ok && hic.selfcheckOk;
        auto fmt = [](std::uint64_t v) {
            return strfmt("%.3fM", static_cast<double>(v) / 1e6);
        };
        t.addRow({strfmt("%u B", ls), "Conv", fmt(conv.reads),
                  fmt(conv.writes), "-", "-", "-", fmt(conv.total()),
                  ""});
        t.addRow({strfmt("%u B", ls), "HICAMP", fmt(hic.reads),
                  fmt(hic.writes), fmt(hic.lookups), fmt(hic.dealloc),
                  fmt(hic.rc), fmt(hic.total()),
                  strfmt("%.2f", static_cast<double>(hic.total()) /
                                     static_cast<double>(conv.total()))});
    }
    t.print();
    std::printf("\npaper shape: HICAMP total comparable to or below "
                "conventional; both fall with line size.\n");
    std::printf("SELFCHECK metrics-delta-vs-dram-counters: %s\n",
                selfcheck_ok ? "PASS" : "FAIL");
    bench::finishBench(last_delta);
    return selfcheck_ok ? 0 : 1;
}
