/**
 * @file
 * `audit` — run a named workload on a fresh HICAMP machine, then dump
 * the heap auditor's full invariant report, once while the workload's
 * structures are still live and once after everything is torn down
 * (when any nonzero refcount is a leak). Exit status is non-zero if
 * either audit finds a violation, so the tool doubles as a CI check.
 *
 * Usage:
 *   audit [--workload smoke|map|memcached] [--items N] [--requests N]
 *         [--line-bytes 16|32|64] [--buckets N] [--no-compaction-check]
 *         [--overflow-cap N] [--max-live-lines N] [--refcount-bits N]
 *         [--fault-seed S] [--fault-alloc-p P] [--fault-alloc-every N]
 *         [--fault-flip-p P] [--fault-flip-every N]
 *
 * The fault flags drive the deterministic injector (common/fault.hh);
 * the capacity flags bound the line store so the workload can be
 * pushed into clean out-of-memory behaviour. Either way the tool
 * reports the pressure/contention counters and still demands a
 * leak-free heap afterwards.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "analysis/auditor.hh"
#include "common/cli.hh"
#include "common/status.hh"
#include "lang/context.hh"
#include "lang/harray.hh"
#include "lang/hmap.hh"
#include "lang/hstring.hh"
#include "seg/iterator.hh"
#include "server/store.hh"
#include "workloads/memcached_workload.hh"
#include "workloads/webcorpus.hh"

namespace {

using namespace hicamp;

struct CliOptions {
    std::string workload = "smoke";
    std::uint64_t items = 200;
    std::uint64_t requests = 2000;
    unsigned lineBytes = 16;
    std::uint64_t buckets = 1 << 14;
    bool checkCompaction = true;
    std::uint64_t overflowCap = kUnlimited;
    std::uint64_t maxLiveLines = kUnlimited;
    unsigned refcountBits = 32;
    FaultConfig faults;
};

[[noreturn]] void
badUsage(cli::FlagSet &flags, const char *why)
{
    std::fprintf(stderr, "audit: %s\n", why);
    flags.usage(stderr);
    std::exit(2);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions o;
    cli::FlagSet flags("audit",
                       "run a named workload, then demand a clean "
                       "heap-invariant report (live + teardown)");
    flags.str("--workload", &o.workload, "smoke | map | memcached");
    flags.u64("--items", &o.items, "corpus size");
    flags.u64("--requests", &o.requests, "request-stream length");
    flags.u32("--line-bytes", &o.lineBytes, "line size: 16, 32 or 64");
    flags.u64("--buckets", &o.buckets, "hash-bucket (DRAM row) count");
    flags.u64("--overflow-cap", &o.overflowCap,
              "overflow-area line capacity");
    flags.u64("--max-live-lines", &o.maxLiveLines,
              "hard budget on live lines");
    flags.u32("--refcount-bits", &o.refcountBits,
              "refcount field width (2..32, saturating)");
    bool no_compaction_check = false;
    flags.toggle("--no-compaction-check", &no_compaction_check,
                 "skip the path/data compaction invariant");
    cli::addFaultFlags(flags, o.faults);
    flags.parse(argc, argv);
    o.checkCompaction = !no_compaction_check;
    if (o.items == 0 || o.buckets == 0)
        badUsage(flags, "--items and --buckets must be nonzero");
    if (o.refcountBits < 2 || o.refcountBits > 32)
        badUsage(flags, "--refcount-bits outside 2..32");
    if (o.lineBytes != 16 && o.lineBytes != 32 && o.lineBytes != 64)
        badUsage(flags, "--line-bytes must be 16, 32 or 64");
    if (o.workload != "smoke" && o.workload != "map" &&
        o.workload != "memcached")
        badUsage(flags, "unknown --workload");
    return o;
}

/** Audit while the workload's structures are still in scope. */
bool
auditLive(Hicamp &hc, const Auditor::Options &aopts)
{
    std::printf("\n== audit with live structures\n");
    AuditReport live = Auditor::audit(hc, aopts);
    live.print();
    return live.clean();
}

/** Mixed array/map/iterator exercise covering all structure layers. */
bool
runSmoke(Hicamp &hc, const CliOptions &o, const Auditor::Options &aopts)
{
    HArray<std::uint64_t> arr(hc);
    for (std::uint64_t i = 0; i < o.items; ++i)
        arr.set(i, i * 0x9e3779b97f4a7c15ull);
    HMap map(hc);
    for (std::uint64_t i = 0; i < o.items; ++i) {
        map.set(HString(hc, "key-" + std::to_string(i)),
                HString(hc, "value-" + std::to_string(i % 17)));
    }
    for (std::uint64_t i = 0; i < o.items; i += 3)
        map.erase(HString(hc, "key-" + std::to_string(i)));
    IteratorRegister it(hc.mem, hc.vsm);
    it.load(arr.vsid(), 0);
    while (it.next()) {
    }
    return auditLive(hc, aopts);
}

/** Pure HMap churn: set/overwrite/erase with deduplicating values. */
bool
runMap(Hicamp &hc, const CliOptions &o, const Auditor::Options &aopts)
{
    HMap map(hc);
    for (std::uint64_t r = 0; r < o.requests; ++r) {
        const std::uint64_t k = r % o.items;
        HString key(hc, "k" + std::to_string(k));
        if (r % 7 == 6) {
            map.erase(key);
        } else {
            map.set(key,
                    HString(hc, "payload-" + std::to_string(r % 31)));
        }
    }
    return auditLive(hc, aopts);
}

/** The paper's memcached trace replayed through the server's store. */
bool
runMemcached(Hicamp &hc, const CliOptions &o,
             const Auditor::Options &aopts)
{
    WebCorpus::Params cp;
    cp.numItems = o.items;
    cp.maxBytes = 2048;
    auto items = WebCorpus::generate(cp);
    McWorkloadParams mp;
    mp.numRequests = o.requests;
    auto reqs = generateMcRequests(items, mp);

    server::McStore store(hc);
    IteratorRegister reg(hc.mem, hc.vsm);
    for (const auto &it : items)
        store.set(it.key, 0, it.payload);
    for (const auto &r : reqs) {
        const std::string &key = items[r.itemIndex].key;
        switch (r.op) {
          case McRequest::Op::Get:
            store.get(reg, key);
            break;
          case McRequest::Op::Set:
            store.set(key, 0, r.newValue);
            break;
          case McRequest::Op::Delete:
            store.erase(key);
            break;
        }
    }
    return auditLive(hc, aopts);
}

} // namespace

void
printPressure(Hicamp &hc)
{
    std::printf("\n== pressure / contention counters\n");
    for (const auto &[name, value] : hc.mem.pressureStats().snapshot()) {
        std::printf("  %-24s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    }
    const FaultInjector &fi = hc.mem.faults();
    if (fi.config().anyEnabled()) {
        std::printf("  %-24s %llu\n", "faults_alloc_injected",
                    static_cast<unsigned long long>(
                        fi.allocFailsInjected()));
        std::printf("  %-24s %llu\n", "faults_flips_injected",
                    static_cast<unsigned long long>(
                        fi.bitFlipsInjected()));
    }
}

int
main(int argc, char **argv)
{
    CliOptions o = parseArgs(argc, argv);

    MemoryConfig cfg;
    cfg.lineBytes = o.lineBytes;
    cfg.numBuckets = o.buckets;
    cfg.overflowCapacity = o.overflowCap;
    cfg.maxLiveLines = o.maxLiveLines;
    cfg.refcountBits = o.refcountBits;
    cfg.faults = o.faults;
    Hicamp hc(cfg);

    Auditor::Options aopts;
    aopts.checkCompaction = o.checkCompaction;

    std::printf("== workload: %s (items=%llu requests=%llu "
                "line=%uB buckets=%llu)\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.items),
                static_cast<unsigned long long>(o.requests),
                o.lineBytes,
                static_cast<unsigned long long>(o.buckets));
    bool clean;
    bool pressured = false;
    try {
        if (o.workload == "smoke") {
            clean = runSmoke(hc, o, aopts);
        } else if (o.workload == "map") {
            clean = runMap(hc, o, aopts);
        } else if (o.workload == "memcached") {
            clean = runMemcached(hc, o, aopts);
        } else {
            std::abort(); // unreachable: parseArgs validated the name
        }
    } catch (const MemPressureError &e) {
        // The graceful-degradation contract: the workload surfaces a
        // typed error instead of aborting, and the rollback left no
        // leaked lines (the teardown audit below proves it).
        std::printf("\nworkload stopped by memory pressure: %s (%s)\n",
                    memStatusName(e.status()), e.what());
        pressured = true;
        clean = true;
    }

    // Structures are destroyed; every surviving refcount is a leak.
    std::printf("\n== audit after teardown\n");
    AuditReport post = Auditor::audit(hc, aopts);
    post.print();
    clean = clean && post.clean();

    printPressure(hc);
    if (pressured)
        std::printf("\n(out-of-memory handled cleanly; exit reflects "
                    "audit verdict only)\n");

    return clean ? 0 : 1;
}
