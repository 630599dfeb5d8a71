/**
 * @file
 * Encoder pins: the exact bytes the compact encoder produces on the
 * recording paths, recorded once and compared on every build.
 *
 *  - FNV-1a digests of every encoded column, plus the op count and
 *    the fastBranchScan() verdict, for four workloads at two seeds,
 *    recorded through SharedTrace(TraceSource &, max_ops);
 *  - the bytes of a small segmented container with a partial last
 *    segment, written both by CorpusManager::storeSegmentedFromSource
 *    and by writeSegmentedTraceFile;
 *  - a hostile hand-built source that breaks every precondition of
 *    the O(branches) scan and ends before max_ops, recorded directly,
 *    through the segmented writers and through a v1 trace file.
 *
 * Any change to how ops become columns shows up here as a named
 * column of a named trace.  To re-record after a deliberate format
 * change, copy the "actual" lines the failures print.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "corpus/corpus.hh"
#include "harness/experiment.hh"
#include "test_util.hh"
#include "trace/compact_trace.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

namespace tpred
{
namespace
{

uint64_t
fnv1a(const void *data, size_t bytes,
      uint64_t hash = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

template <typename T>
uint64_t
digest(std::span<const T> column)
{
    return fnv1a(column.data(), column.size_bytes());
}

constexpr size_t kNumColumns = 13;

/** One trace's encoding: op count, scan verdict, column digests. */
struct ColumnPin
{
    size_t count;
    bool fastBranchScan;
    std::array<uint64_t, kNumColumns> digests;
};

ColumnPin
pinOf(const CompactTrace &trace)
{
    const CompactColumns c = trace.columns();
    return {c.count,
            c.fastBranchScan,
            {digest(c.flags), digest(c.regBytes), digest(c.regEscapes),
             digest(c.targetDeltas), digest(c.discontPos),
             digest(c.discontPc), digest(c.memPos), digest(c.memDeltas),
             digest(c.selPos), digest(c.selVals), digest(c.fallPos),
             digest(c.fallVals), digest(c.branchPos)}};
}

constexpr std::array<const char *, kNumColumns> kColumnNames = {
    "flags",   "regBytes", "regEscapes", "targetDeltas", "discontPos",
    "discontPc", "memPos", "memDeltas",  "selPos",       "selVals",
    "fallPos", "fallVals", "branchPos"};

/** The pin in the form the expectation tables below are written in. */
std::string
formatPin(const ColumnPin &pin)
{
    std::string out = "{" + std::to_string(pin.count) + ", " +
                      (pin.fastBranchScan ? "true" : "false") + ", {";
    for (size_t i = 0; i < kNumColumns; ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s0x%016llxull",
                      i == 0 ? "" : ", ",
                      static_cast<unsigned long long>(pin.digests[i]));
        out += buf;
    }
    return out + "}}";
}

void
expectPin(const ColumnPin &actual, const ColumnPin &expected,
          const std::string &what)
{
    bool same = actual.count == expected.count &&
                actual.fastBranchScan == expected.fastBranchScan;
    EXPECT_EQ(actual.count, expected.count) << what;
    EXPECT_EQ(actual.fastBranchScan, expected.fastBranchScan) << what;
    for (size_t i = 0; i < kNumColumns; ++i) {
        same = same && actual.digests[i] == expected.digests[i];
        EXPECT_EQ(actual.digests[i], expected.digests[i])
            << what << ": column " << kColumnNames[i] << " moved";
    }
    if (!same)
        ADD_FAILURE() << what << " actual: " << formatPin(actual);
}

struct WorkloadPin
{
    const char *workload;
    uint64_t seed;
    ColumnPin pin;
};

constexpr size_t kPinOps = 20000;

const std::vector<WorkloadPin> kWorkloadPins = {
    {"gcc", 1,
     {20000, true,
      {0xd5aee455b2a5dd24ull, 0x05515dfb117bcf2aull, 0xcbf29ce484222325ull,
       0x3f29b615d616dba6ull, 0x3337f12dea595014ull, 0x951745e7c43ea685ull,
       0x1396ebefc7636cd9ull, 0x9688ce7a890da1fbull, 0x782d0d466486f981ull,
       0x92984dbb0d5b26bfull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0xc0fc826a1b28601bull}}},
    {"gcc", 2,
     {20000, true,
      {0x527fcc404d3f635full, 0x9f32239daf5c2dbbull, 0xcbf29ce484222325ull,
       0x9ec76136e9540abdull, 0x91d91dcbc447024bull, 0x12ae35d0902cfde5ull,
       0xf69d05886add8524ull, 0x3c942356563ee05dull, 0xd113aa992c9e6209ull,
       0xcbd3c2e43a2ce46full, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0x5aaab42f11c58021ull}}},
    {"perl", 1,
     {20000, true,
      {0x27d37e65c31d4d6aull, 0xe9ed6e673363f2d2ull, 0xcbf29ce484222325ull,
       0x7008cabca6161cb5ull, 0x4d25767f9dce13f5ull, 0x832eeb76aba8ab85ull,
       0xca651e7069a8a7afull, 0x3e0eef04f2578257ull, 0x96bb0e200da4dea8ull,
       0x14978fbabc1219a0ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0x1aefb5fec5744e08ull}}},
    {"perl", 2,
     {20000, true,
      {0xe6fa508cae6291aaull, 0xc8237e8e8076ef4eull, 0xcbf29ce484222325ull,
       0xf297cd56b89924c5ull, 0x4d25767f9dce13f5ull, 0x832eeb76aba8ab85ull,
       0x10a0525b52b250e8ull, 0x5da31e6b07dfa3bcull, 0x22c7cb3093fddf6dull,
       0xf5df0da118a8a51dull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0xd9f54a4dd51013d2ull}}},
    {"server-dispatch", 1,
     {20000, true,
      {0x8b4beb120b185125ull, 0x82db5a96ab2ea6c5ull, 0xcbf29ce484222325ull,
       0x8220e7e21ddcbe5dull, 0x4d25767f9dce13f5ull, 0x832eeb76aba8ab85ull,
       0x29e9a806fcb0fb3dull, 0xe22c76e18cc20ed8ull, 0x9f0c5397cb867cf7ull,
       0xe46f4c8a8b7ad76cull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0x51193a012abb0fccull}}},
    {"server-dispatch", 2,
     {20000, true,
      {0x95daba9fbf121eb2ull, 0x5f3584a398c794c2ull, 0xcbf29ce484222325ull,
       0x30f5a9b421c6e28full, 0x4d25767f9dce13f5ull, 0x832eeb76aba8ab85ull,
       0x646b9df66f1a7429ull, 0x7bdc7d0f2341956aull, 0x42797759602492d3ull,
       0xf70d0e16897a971full, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0x401e69073b104045ull}}},
    {"server-jit", 1,
     {20000, true,
      {0xb5f8a57904c5ec96ull, 0x40080c60f6046939ull, 0xcbf29ce484222325ull,
       0xbd10e6f9134eea37ull, 0x4d25767f9dce13f5ull, 0x832eeb76aba8ab85ull,
       0x0e48468dbc573db0ull, 0x93631b64f15b2a1eull, 0x09f2eb7a43c8a6d7ull,
       0x34878fe2c64d6ff8ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0xb64e330f181735b9ull}}},
    {"server-jit", 2,
     {20000, true,
      {0xf07170e6d5f85bdbull, 0x727a08736324bc08ull, 0xcbf29ce484222325ull,
       0x9db3c033518dafdeull, 0x4d25767f9dce13f5ull, 0x832eeb76aba8ab85ull,
       0x7964666c2a1fd353ull, 0xde0eea014c2b2fe6ull, 0xf31553c4db907819ull,
       0x889f3e7b0aff7aeaull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0x868583a2909fdef8ull}}},
};

TEST(CompactEncoderPins, WorkloadColumnsUnchanged)
{
    ASSERT_EQ(kWorkloadPins.size(), 8u);
    for (const WorkloadPin &w : kWorkloadPins) {
        auto source = makeWorkload(w.workload, w.seed);
        const SharedTrace trace(*source, kPinOps);
        expectPin(pinOf(trace.compact()), w.pin,
                  std::string(w.workload) + " seed " +
                      std::to_string(w.seed));
    }
}

/**
 * Hand-built ops that break every precondition of the O(branches)
 * scan: register escapes, fallthrough overrides, a redirect on a
 * non-branch, a memAddr on a branch, and pc discontinuities.
 */
std::vector<MicroOp>
hostileOps()
{
    using test::branchOp;
    using test::indirectOp;
    using test::plainOp;
    std::vector<MicroOp> ops;
    uint64_t pc = 0x4000;
    for (int i = 0; i < 40; ++i) {
        MicroOp op;
        switch (i % 8) {
          case 0:
            op = plainOp(pc, InstClass::Load);
            op.memAddr = 0x100000 + static_cast<uint64_t>(i) * 24;
            op.dstReg = static_cast<RegIndex>(i % 32);
            break;
          case 1:
            op = plainOp(pc);
            op.dstReg = 254;                      // escapes
            op.srcRegs = {-2, static_cast<RegIndex>(-300 - i)};
            break;
          case 2:
            op = plainOp(pc);
            op.fallthrough = pc + 12;             // override
            break;
          case 3:
            op = plainOp(pc);
            op.nextPc = pc + 64;                  // redirect, no branch
            break;
          case 4:
            op = indirectOp(pc, 0x9000 + static_cast<uint64_t>(i) * 16,
                            static_cast<uint64_t>(i));
            op.memAddr = 0x200000 - static_cast<uint64_t>(i);
            break;
          case 5:
            op = branchOp(pc, BranchKind::CondDirect, pc - 32, i % 3 != 0);
            op.srcRegs[0] = 7;
            break;
          case 6:
            op = plainOp(pc + 0x1000);            // discontinuity
            op.selector = 5;
            break;
          default:
            op = branchOp(pc, BranchKind::Return, 0x4000 + 8 * i);
            op.pc = 0xfffffffffffffff8ull;        // wraps past 2^64
            op.fallthrough = op.pc + 4;
            break;
        }
        ops.push_back(op);
        pc = op.nextPc;
    }
    return ops;
}

const ColumnPin kHostilePin =
    {40, false,
     {0x2fd78e499eb68d4eull, 0xc6fd268105e02d17ull, 0x25e5a7c68772af3dull,
      0xaa408cb508c7031eull, 0xe87776baeb064b84ull, 0x548c32557cbab1a4ull,
      0x3fba3f25d27bf241ull, 0x396b32363de04c08ull, 0x4224c4bc4571afe7ull,
      0xa596b9dff24a50e2ull, 0xc4beba0a0f7750d7ull, 0x9df52251fa5d96b6ull,
      0x609225a2c38e2243ull}};

TEST(CompactEncoderPins, HostileSourceShorterThanMaxOps)
{
    const std::vector<MicroOp> ops = hostileOps();
    VectorTraceSource source(ops, "hostile");
    const SharedTrace trace(source, 1000);
    EXPECT_EQ(trace.name(), "hostile");
    ASSERT_EQ(trace.size(), ops.size());
    EXPECT_FALSE(trace.compact().fastBranchScan());
    expectPin(pinOf(trace.compact()), kHostilePin, "hostile source");

    const std::vector<MicroOp> decoded = trace.decodeOps();
    for (size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(decoded[i].pc, ops[i].pc) << "op " << i;
        EXPECT_EQ(decoded[i].nextPc, ops[i].nextPc) << "op " << i;
        EXPECT_EQ(decoded[i].fallthrough, ops[i].fallthrough) << "op " << i;
        EXPECT_EQ(decoded[i].memAddr, ops[i].memAddr) << "op " << i;
        EXPECT_EQ(decoded[i].selector, ops[i].selector) << "op " << i;
        EXPECT_EQ(decoded[i].cls, ops[i].cls) << "op " << i;
        EXPECT_EQ(decoded[i].branch, ops[i].branch) << "op " << i;
        EXPECT_EQ(decoded[i].taken, ops[i].taken) << "op " << i;
        EXPECT_EQ(decoded[i].dstReg, ops[i].dstReg) << "op " << i;
        EXPECT_EQ(decoded[i].srcRegs, ops[i].srcRegs) << "op " << i;
    }

    // A max_ops cut mid-source keeps exactly the first max_ops ops.
    VectorTraceSource again(ops, "hostile");
    const SharedTrace prefix(again, 13);
    EXPECT_EQ(prefix.size(), 13u);
}

const ColumnPin kHostileV1Pin =
    {40, false,
     {0x2fd78e499eb68d4eull, 0xc6fd268105e02d17ull, 0x25e5a7c68772af3dull,
      0xaa408cb508c7031eull, 0xe87776baeb064b84ull, 0x548c32557cbab1a4ull,
      0x3fba3f25d27bf241ull, 0x396b32363de04c08ull, 0x4224c4bc4571afe7ull,
      0xa596b9dff24a50e2ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
      0x609225a2c38e2243ull}};

/** The v1 reader encodes what it parses; v1 has no fallthrough. */
TEST(CompactEncoderPins, HostileV1FileColumnsUnchanged)
{
    std::stringstream file;
    writeTraceV1(file, hostileOps(), "hostile");
    std::string name;
    const CompactTrace trace = readCompactTrace(file, name);
    EXPECT_EQ(name, "hostile");
    expectPin(pinOf(trace), kHostileV1Pin, "hostile v1 file");
}

/** Each precondition alone is enough to disable the fast scan. */
TEST(CompactEncoderPins, EachHostileFeatureDisablesFastScan)
{
    // A coherent base: plain ops, every fourth a conditional branch.
    std::vector<MicroOp> base;
    uint64_t pc = 0x8000;
    for (int i = 0; i < 16; ++i) {
        const MicroOp op =
            i % 4 == 3 ? test::branchOp(pc, BranchKind::CondDirect,
                                        pc + 40, i % 8 == 3)
                       : test::plainOp(pc);
        base.push_back(op);
        pc = op.nextPc;
    }
    VectorTraceSource coherent(base);
    EXPECT_TRUE(SharedTrace(coherent, 100).compact().fastBranchScan());

    const auto with = [&base](size_t at, auto mutate) {
        std::vector<MicroOp> ops = base;
        mutate(ops[at]);
        VectorTraceSource source(std::move(ops));
        return SharedTrace(source, 100).compact().fastBranchScan();
    };
    // base[5] is a plain op, base[7] a branch.
    EXPECT_FALSE(with(5, [](MicroOp &op) { op.dstReg = 300; }));
    EXPECT_FALSE(with(5, [](MicroOp &op) { op.srcRegs[1] = -7; }));
    EXPECT_FALSE(with(5, [](MicroOp &op) { op.fallthrough += 8; }));
    EXPECT_FALSE(with(5, [](MicroOp &op) { op.nextPc += 8; }));
    EXPECT_FALSE(with(7, [](MicroOp &op) { op.memAddr = 0x1234; }));
}

/** Fresh empty directory under the system temp dir. */
struct TempDir
{
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path = (fs::temp_directory_path() /
                ("tpred_pins_" + tag + "_" + std::to_string(::getpid()) +
                 "_" + std::to_string(counter++)))
                   .string();
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string path;
};

std::vector<uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * Stores @p streamed under @p key with storeSegmentedFromSource and
 * writes @p resident with writeSegmentedTraceFile; both files must be
 * the same bytes, which are returned.
 */
std::vector<uint8_t>
segmentedBothWays(const CorpusKey &key, TraceSource &streamed,
                  const CompactTrace &resident, size_t segment_ops)
{
    const TempDir dir("seg");
    CorpusManager corpus(dir.path);
    corpus.storeSegmentedFromSource(key, streamed, key.workload,
                                    segment_ops);
    const std::string path = dir.path + "/resident.tpcs";
    writeSegmentedTraceFile(path, resident, key.workload, segment_ops);

    const std::vector<uint8_t> bytes =
        fileBytes(corpus.segmentedPathFor(key, segment_ops));
    EXPECT_EQ(bytes, fileBytes(path));
    return bytes;
}

void
expectContainer(const std::vector<uint8_t> &bytes, size_t size,
                uint64_t digest)
{
    EXPECT_EQ(bytes.size(), size);
    EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), digest)
        << "actual size " << bytes.size();
}

TEST(CompactEncoderPins, SegmentedContainerBytesUnchanged)
{
    // 2500 ops in 1000-op segments: the last segment holds 500.
    const CorpusKey key{"server-jit", 3, 2500};
    auto source = makeWorkload(key.workload, key.seed);
    const SharedTrace resident =
        recordWorkload(key.workload, key.ops, key.seed);
    expectContainer(
        segmentedBothWays(key, *source, resident.compact(), 1000), 22184,
        18433712908603298719ull);
}

TEST(CompactEncoderPins, HostileSegmentedContainerBytesUnchanged)
{
    // 40 ops in 16-op segments; key.ops above the source length, so
    // the source runs dry first.
    const std::vector<MicroOp> ops = hostileOps();
    const CorpusKey key{"hostile", 1, 1000};
    VectorTraceSource source(ops, "hostile");
    VectorTraceSource again(ops, "hostile");
    const SharedTrace resident(again, ops.size());
    expectContainer(
        segmentedBothWays(key, source, resident.compact(), 16), 2328,
        15889195904229832100ull);
}

} // namespace
} // namespace tpred
