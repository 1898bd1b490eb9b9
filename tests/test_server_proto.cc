/**
 * @file
 * Protocol-parser and end-to-end server tests (DESIGN.md §14):
 * commands split across reads at every byte boundary, pipelined
 * multi-gets, oversized keys and garbage input, quit mid-pipeline,
 * and per-request graceful degradation — all against both the bare
 * ProtoParser and a live loopback McServer, with the heap audited
 * after every server scenario.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit_check.hh"
#include "loopback_client.hh"
#include "server/proto.hh"
#include "server/server.hh"
#include "server/store.hh"

namespace hicamp::server {
namespace {

/**
 * Feed @p input to a parser in chunks of @p chunk bytes, collecting
 * every parsed command — the test double of the connection read loop
 * (buffer, consume, compact).
 */
std::vector<McCommand>
parseChunked(std::string_view input, std::size_t chunk)
{
    ProtoParser p;
    std::string buf;
    std::vector<McCommand> cmds;
    std::size_t fed = 0;
    while (fed < input.size() || !buf.empty()) {
        if (fed < input.size()) {
            const std::size_t n =
                std::min(chunk, input.size() - fed);
            buf.append(input.substr(fed, n));
            fed += n;
        }
        bool progress = false;
        for (;;) {
            std::size_t consumed = 0;
            McCommand cmd;
            const ParseResult r = p.step(buf, consumed, cmd);
            // own() before erase: the views alias buf, and erase
            // shifts the tail bytes over them.
            if (r == ParseResult::Ok)
                cmd.own();
            buf.erase(0, consumed);
            if (r == ParseResult::Ok) {
                cmds.push_back(std::move(cmd));
                progress = true;
                continue;
            }
            EXPECT_NE(r, ParseResult::Fatal);
            break;
        }
        if (fed >= input.size() && !progress)
            break; // parser is starved: whatever's left is partial
    }
    return cmds;
}

TEST(ServerProto, PipelinedBurstParsesWithoutCopies)
{
    ProtoParser p;
    const std::string burst = "get a bb ccc\r\n"
                              "set k 7 0 5\r\nhello\r\n"
                              "delete k noreply\r\n"
                              "incr n 42\r\n"
                              "version\r\n";
    std::string_view rest = burst;
    std::vector<McCommand> cmds;
    for (;;) {
        std::size_t consumed = 0;
        McCommand cmd;
        if (p.step(rest, consumed, cmd) != ParseResult::Ok)
            break;
        rest.remove_prefix(consumed);
        cmds.push_back(std::move(cmd));
    }
    ASSERT_EQ(cmds.size(), 5u);
    EXPECT_EQ(cmds[0].op, McCommand::Op::Get);
    ASSERT_EQ(cmds[0].keys.size(), 3u);
    EXPECT_EQ(cmds[0].keys[1], "bb");
    EXPECT_EQ(cmds[1].op, McCommand::Op::Set);
    EXPECT_EQ(cmds[1].flags, 7u);
    // Zero-copy: the data view aliases the input buffer.
    EXPECT_EQ(cmds[1].data, "hello");
    EXPECT_GE(cmds[1].data.data(), burst.data());
    EXPECT_LT(cmds[1].data.data(), burst.data() + burst.size());
    EXPECT_EQ(cmds[2].op, McCommand::Op::Delete);
    EXPECT_TRUE(cmds[2].noreply);
    EXPECT_EQ(cmds[3].op, McCommand::Op::Incr);
    EXPECT_EQ(cmds[3].delta, 42u);
    EXPECT_EQ(cmds[4].op, McCommand::Op::Version);
}

TEST(ServerProto, TornReadsParseIdenticallyAtEveryChunkSize)
{
    const std::string input = "set key1 3 0 8\r\nabc\r\nxyz\r\n"
                              "get key1 key2\r\n"
                              "decr key1 9 noreply\r\n";
    const auto whole = parseChunked(input, input.size());
    ASSERT_EQ(whole.size(), 3u);
    for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
        const auto cmds = parseChunked(input, chunk);
        ASSERT_EQ(cmds.size(), whole.size()) << "chunk " << chunk;
        EXPECT_EQ(cmds[0].op, McCommand::Op::Set);
        // The data block may itself contain CRLF; byte count rules.
        EXPECT_EQ(cmds[0].ownedData, "abc\r\nxyz");
        EXPECT_EQ(cmds[1].op, McCommand::Op::Get);
        ASSERT_EQ(cmds[1].ownedKeys.size(), 2u);
        EXPECT_EQ(cmds[1].ownedKeys[0], "key1");
        EXPECT_EQ(cmds[2].op, McCommand::Op::Decr);
        EXPECT_TRUE(cmds[2].noreply);
    }
}

TEST(ServerProto, OversizedKeySwallowsDataBlockAndResyncs)
{
    const std::string bigKey(kMaxKeyBytes + 1, 'k');
    const std::string input = "set " + bigKey +
                              " 0 0 6\r\nstaled\r\nget ok\r\n";
    // Chunked feeding exercises the cross-read drain path too.
    for (std::size_t chunk : {input.size(), std::size_t{3}}) {
        const auto cmds = parseChunked(input, chunk);
        ASSERT_EQ(cmds.size(), 2u) << "chunk " << chunk;
        EXPECT_EQ(cmds[0].op, McCommand::Op::BadLine);
        EXPECT_NE(cmds[0].error.find("CLIENT_ERROR"),
                  std::string::npos);
        // The stream resynchronized: the next command parses clean.
        EXPECT_EQ(cmds[1].op, McCommand::Op::Get);
        ASSERT_EQ(cmds[1].ownedKeys.size(), 1u);
        EXPECT_EQ(cmds[1].ownedKeys[0], "ok");
    }
}

TEST(ServerProto, OversizedGetKeyRejectedInline)
{
    const std::string bigKey(kMaxKeyBytes + 1, 'g');
    const auto cmds =
        parseChunked("get " + bigKey + "\r\nget ok\r\n", 64);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].op, McCommand::Op::BadLine);
    EXPECT_EQ(cmds[1].op, McCommand::Op::Get);
}

TEST(ServerProto, GarbageAndMalformedLines)
{
    const auto cmds = parseChunked("blargh quux\r\n"
                                   "set onlykey\r\n"
                                   "incr k notanumber\r\n"
                                   "\r\n"
                                   "stats\r\n",
                                   9);
    ASSERT_EQ(cmds.size(), 5u);
    EXPECT_EQ(cmds[0].op, McCommand::Op::BadLine);
    EXPECT_EQ(cmds[0].error, std::string(resp::kError));
    EXPECT_EQ(cmds[1].op, McCommand::Op::BadLine);
    EXPECT_NE(cmds[1].error.find("CLIENT_ERROR"), std::string::npos);
    EXPECT_EQ(cmds[2].op, McCommand::Op::BadLine);
    EXPECT_NE(cmds[2].error.find("numeric"), std::string::npos);
    EXPECT_EQ(cmds[3].op, McCommand::Op::BadLine); // empty line
    EXPECT_EQ(cmds[4].op, McCommand::Op::Stats);
}

TEST(ServerProto, BadDataChunkDetected)
{
    // Client announces 5 bytes but the CRLF is not where it must be.
    ProtoParser p;
    std::size_t consumed = 0;
    McCommand cmd;
    ASSERT_EQ(p.step("set k 0 0 5\r\nhelloXXget k\r\n", consumed, cmd),
              ParseResult::Ok);
    EXPECT_EQ(cmd.op, McCommand::Op::BadLine);
    EXPECT_NE(cmd.error.find("bad data chunk"), std::string::npos);
}

TEST(ServerProto, UnterminatedRunawayLineIsFatal)
{
    ProtoParser p;
    const std::string junk(kMaxLineBytes + 2, 'x');
    std::size_t consumed = 0;
    McCommand cmd;
    EXPECT_EQ(p.step(junk, consumed, cmd), ParseResult::Fatal);
}

TEST(ServerProto, NeedMoreConsumesNothingOnGoodCommands)
{
    ProtoParser p;
    std::size_t consumed = 0;
    McCommand cmd;
    // Data block announced but not buffered: nothing consumed, the
    // command re-parses whole once the rest lands.
    EXPECT_EQ(p.step("set k 0 0 10\r\nhalf", consumed, cmd),
              ParseResult::NeedMore);
    EXPECT_EQ(consumed, 0u);
    EXPECT_EQ(p.step("set k 0 0 10\r\nhalf+more+\r\n", consumed, cmd),
              ParseResult::Ok);
    EXPECT_EQ(cmd.op, McCommand::Op::Set);
    EXPECT_EQ(cmd.data, "half+more+");
}

// ---------------------------------------------------------------------
// End-to-end over loopback
// ---------------------------------------------------------------------

struct ServerFixture {
    ServerFixture(unsigned workers = 2)
        : hc(smallConfig()), store(hc), srv(store, config(workers))
    {
        srv.start();
    }

    static MemoryConfig
    smallConfig()
    {
        MemoryConfig c;
        c.numBuckets = 1 << 12;
        return c;
    }

    static ServerConfig
    config(unsigned workers)
    {
        ServerConfig c;
        c.workers = workers;
        c.maxConns = 64;
        c.ringSlots = 16;
        return c;
    }

    Hicamp hc;
    McStore store;
    McServer srv;
};

TEST(ServerProto, EndToEndSetGetSplitAcrossWrites)
{
    ServerFixture f;
    LoopbackClient cli(f.srv.port());
    // The set command and its data block arrive in three writes torn
    // at awkward places.
    ASSERT_TRUE(cli.send("set torn 3 0 1"));
    ASSERT_TRUE(cli.send("1\r\nhello"));
    ASSERT_TRUE(cli.send(" world\r\nget torn\r\nquit\r\n"));
    const std::string got = cli.recvUntilClose();
    EXPECT_EQ(got,
              "STORED\r\nVALUE torn 3 11\r\nhello world\r\nEND\r\n");
    f.srv.stop();
    expectCleanAudit(f.hc);
}

TEST(ServerProto, EndToEndPipelinedMultiGet)
{
    ServerFixture f;
    f.store.set("a", 1, "AA");
    f.store.set("c", 3, "CCCC");
    LoopbackClient cli(f.srv.port());
    ASSERT_TRUE(cli.send("get a b c\r\nget a\r\nquit\r\n"));
    const std::string got = cli.recvUntilClose();
    EXPECT_EQ(got, "VALUE a 1 2\r\nAA\r\n"
                   "VALUE c 3 4\r\nCCCC\r\nEND\r\n"
                   "VALUE a 1 2\r\nAA\r\nEND\r\n");
    f.srv.stop();
    expectCleanAudit(f.hc);
}

TEST(ServerProto, EndToEndQuitMidPipeline)
{
    ServerFixture f;
    f.store.set("k", 0, "v");
    LoopbackClient cli(f.srv.port());
    // Everything before quit is answered; everything after is dead.
    ASSERT_TRUE(cli.send("get k\r\nquit\r\nget k\r\nget k\r\n"));
    const std::string got = cli.recvUntilClose();
    EXPECT_EQ(got, "VALUE k 0 1\r\nv\r\nEND\r\n");
    f.srv.stop();
    expectCleanAudit(f.hc);
}

TEST(ServerProto, EndToEndBufferedCommandsBeyondPendingCapAnswered)
{
    // Twenty GETs in one write against a pending cap of 8: the server
    // reads all of them at once but parses only 8. The client then
    // goes quiet, so no later socket read can wake the parser; the
    // rest must be parsed as completions free room.
    Hicamp hc(ServerFixture::smallConfig());
    McStore store(hc);
    ServerConfig sc = ServerFixture::config(2);
    sc.maxPending = 8;
    McServer srv(store, sc);
    srv.start();
    store.set("k", 0, "v");
    const std::string reply = "VALUE k 0 1\r\nv\r\nEND\r\n";
    {
        LoopbackClient cli(srv.port());
        std::string script;
        for (int i = 0; i < 20; ++i)
            script += "get k\r\n";
        ASSERT_TRUE(cli.send(script));
        std::string want;
        for (int i = 0; i < 20; ++i)
            want += reply;
        // recvN gives up after the client's receive timeout.
        EXPECT_EQ(cli.recvN(want.size()), want);
    }
    srv.stop();
    expectCleanAudit(hc);
}

TEST(ServerProto, EndToEndGarbageKeepsConnectionUsable)
{
    ServerFixture f;
    LoopbackClient cli(f.srv.port());
    ASSERT_TRUE(cli.send("what even is this\r\nset k 0 0 2\r\nok\r\n"
                         "get k\r\nquit\r\n"));
    const std::string got = cli.recvUntilClose();
    EXPECT_EQ(got, "ERROR\r\nSTORED\r\nVALUE k 0 2\r\nok\r\nEND\r\n");
    f.srv.stop();
    expectCleanAudit(f.hc);
}

TEST(ServerProto, EndToEndAddReplaceIncrDelete)
{
    ServerFixture f;
    LoopbackClient cli(f.srv.port());
    ASSERT_TRUE(cli.send("add n 0 0 2\r\n40\r\n"
                         "add n 0 0 2\r\n99\r\n"
                         "replace m 0 0 1\r\nx\r\n"
                         "incr n 2\r\n"
                         "decr n 100\r\n"
                         "incr missing 1\r\n"
                         "set w 0 0 20\r\n18446744073709551615\r\n"
                         "incr w 2\r\n"
                         "delete n\r\n"
                         "delete n\r\n"
                         "quit\r\n"));
    const std::string got = cli.recvUntilClose();
    // decr saturates at zero; incr wraps at 2^64.
    EXPECT_EQ(got, "STORED\r\nNOT_STORED\r\nNOT_STORED\r\n"
                   "42\r\n0\r\nNOT_FOUND\r\nSTORED\r\n1\r\n"
                   "DELETED\r\nNOT_FOUND\r\n");
    f.srv.stop();
    expectCleanAudit(f.hc);
}

TEST(ServerProto, EndToEndNoreplySuppressesResponses)
{
    ServerFixture f;
    LoopbackClient cli(f.srv.port());
    ASSERT_TRUE(cli.send("set a 0 0 1 noreply\r\nA\r\n"
                         "set b 0 0 1 noreply\r\nB\r\n"
                         "get a b\r\nquit\r\n"));
    const std::string got = cli.recvUntilClose();
    EXPECT_EQ(got,
              "VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n");
    f.srv.stop();
    expectCleanAudit(f.hc);
}

TEST(ServerProto, EndToEndOversizedKeyAnswersClientError)
{
    ServerFixture f;
    const std::string bigKey(kMaxKeyBytes + 1, 'z');
    LoopbackClient cli(f.srv.port());
    ASSERT_TRUE(
        cli.send("set " + bigKey + " 0 0 4\r\njunk\r\nget ok\r\nquit\r\n"));
    const std::string got = cli.recvUntilClose();
    EXPECT_EQ(got,
              "CLIENT_ERROR bad command line format\r\nEND\r\n");
    f.srv.stop();
    expectCleanAudit(f.hc);
}

TEST(ServerProto, EndToEndStatsServesBothRegistries)
{
    ServerFixture f;
    LoopbackClient cli(f.srv.port());
    ASSERT_TRUE(cli.send("set k 0 0 1\r\nv\r\nget k\r\nstats\r\nquit\r\n"));
    const std::string got = cli.recvUntilClose();
    const std::string head = "STORED\r\nVALUE k 0 1\r\nv\r\nEND\r\n";
    ASSERT_EQ(got.compare(0, head.size(), head), 0) << got;
    // The memcached names lead, so existing clients still parse them.
    const std::string stats = got.substr(head.size());
    EXPECT_EQ(stats.rfind("STAT cmd_get 1\r\nSTAT cmd_set 1\r\n"
                          "STAT get_hits 1\r\nSTAT get_misses 0\r\n",
                          0),
              0u)
        << stats;
    // Every line is "STAT <name> <value>" up to the final END.
    std::size_t pos = 0, lines = 0;
    while (pos < stats.size()) {
        const std::size_t nl = stats.find("\r\n", pos);
        ASSERT_NE(nl, std::string::npos);
        const std::string line = stats.substr(pos, nl - pos);
        pos = nl + 2;
        if (line == "END") {
            EXPECT_EQ(pos, stats.size());
            break;
        }
        ++lines;
        const std::size_t sp = line.rfind(' ');
        ASSERT_EQ(line.rfind("STAT ", 0), 0u) << line;
        ASSERT_GT(sp, 5u) << line;
        EXPECT_EQ(line.find_first_not_of("0123456789", sp + 1),
                  std::string::npos)
            << line;
    }
    EXPECT_GT(lines, 8u);
    // The server registry (with the park/wake counters) and the heap's.
    for (const char *name :
         {"server.cmds.get", "server.worker.parks", "server.worker.wakes",
          "server.net.parks", "server.net.eventfd_writes",
          "mem.dram.read", "mem.store.live_lines"})
        EXPECT_NE(stats.find(std::string("\r\nSTAT ") + name + " "),
                  std::string::npos)
            << name;
    f.srv.stop();
    expectCleanAudit(f.hc);
}

TEST(ServerProto, EndToEndFaultInjectionDegradesPerRequest)
{
    // Aggressive alloc-fault injection: some SETs answer
    // SERVER_ERROR, nothing aborts, and the heap audits clean.
    MemoryConfig mc;
    mc.numBuckets = 1 << 12;
    mc.faults.allocFailP = 0.05;
    mc.faults.seed = 7;
    Hicamp hc(mc);
    McStore store(hc);
    ServerConfig sc;
    sc.workers = 2;
    McServer srv(store, sc);
    srv.start();
    {
        LoopbackClient cli(srv.port());
        std::string script;
        for (int i = 0; i < 200; ++i) {
            const std::string payload(64 + i, 'p');
            script += "set key" + std::to_string(i) + " 0 0 " +
                      std::to_string(payload.size()) + "\r\n" +
                      payload + "\r\n";
        }
        script += "quit\r\n";
        ASSERT_TRUE(cli.send(script));
        const std::string got = cli.recvUntilClose();
        std::size_t stored = 0, oom = 0, pos = 0;
        std::string line;
        while (pos < got.size()) {
            const std::size_t nl = got.find("\r\n", pos);
            ASSERT_NE(nl, std::string::npos);
            line = got.substr(pos, nl - pos);
            pos = nl + 2;
            if (line == "STORED")
                ++stored;
            else if (line == "SERVER_ERROR out of memory")
                ++oom;
            else
                FAIL() << "unexpected response line: " << line;
        }
        EXPECT_EQ(stored + oom, 200u);
        EXPECT_GT(stored, 0u);
        const auto snap = srv.metrics().snapshot();
        EXPECT_EQ(snap.counter("server.oom_errors"), oom);
    }
    srv.stop();
    // Injection off for the audit itself; the heap must be leak-free
    // even though some requests failed mid-build.
    hc.mem.faults().reconfigure(FaultConfig{});
    expectCleanAudit(hc);
}

} // namespace
} // namespace hicamp::server
