#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "trace/compact_io.hh"

namespace tpred
{

namespace
{

template <typename T>
void
put(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

/** Bounds-checked little-endian reads from an in-memory image. */
class BufferReader
{
  public:
    BufferReader(std::span<const uint8_t> bytes, std::string whence)
        : bytes_(bytes), whence_(std::move(whence))
    {
    }

    template <typename T>
    T
    get()
    {
        T value{};
        copy(&value, sizeof(T));
        return value;
    }

    std::string
    getString(size_t len)
    {
        std::string s(len, '\0');
        copy(s.data(), len);
        return s;
    }

    std::span<const uint8_t>
    rest() const
    {
        return bytes_.subspan(at_);
    }

  private:
    void
    copy(void *dst, size_t len)
    {
        if (bytes_.size() - at_ < len)
            throw std::runtime_error(whence_ + ": trace file truncated");
        std::memcpy(dst, bytes_.data() + at_, len);
        at_ += len;
    }

    std::span<const uint8_t> bytes_;
    size_t at_ = 0;
    std::string whence_;
};

/** Slurps the remainder of @p in into one contiguous buffer. */
std::shared_ptr<std::vector<uint8_t>>
slurp(std::istream &in)
{
    auto buffer = std::make_shared<std::vector<uint8_t>>();
    char chunk[1 << 16];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
        buffer->insert(buffer->end(), chunk, chunk + in.gcount());
        if (!in)
            break;
    }
    return buffer;
}

/**
 * Parses the legacy v1 record stream (positioned after the version),
 * encoding each record as it is read.
 */
CompactTrace
parseV1(BufferReader &reader, std::string &name_out,
        const std::string &whence)
{
    const uint32_t name_len = reader.get<uint32_t>();
    if (name_len > 4096)
        throw std::runtime_error(whence +
                                 ": implausible trace name length");
    name_out = reader.getString(name_len);

    const uint64_t count = reader.get<uint64_t>();
    CompactTrace::Builder builder;
    for (uint64_t i = 0; i < count; ++i) {
        MicroOp op;
        op.pc = reader.get<uint64_t>();
        op.nextPc = reader.get<uint64_t>();
        op.memAddr = reader.get<uint64_t>();
        op.selector = reader.get<uint64_t>();
        op.cls = static_cast<InstClass>(reader.get<uint8_t>());
        op.branch = static_cast<BranchKind>(reader.get<uint8_t>());
        op.taken = reader.get<uint8_t>() != 0;
        op.dstReg = reader.get<int16_t>();
        op.srcRegs[0] = reader.get<int16_t>();
        op.srcRegs[1] = reader.get<int16_t>();
        op.fallthrough = op.pc + 4;
        builder.append(op);
    }
    return builder.finish();
}

/**
 * Shared load path: dispatches on the version preamble.  @p backing
 * keeps the buffer alive for zero-copy v2 adoption.
 */
CompactTrace
parseTrace(std::shared_ptr<std::vector<uint8_t>> buffer,
           std::string &name_out, const std::string &whence)
{
    BufferReader reader(*buffer, whence);
    if (reader.get<uint32_t>() != kTraceMagic)
        throw std::runtime_error(whence + ": not a tpred trace file");
    const uint32_t version = reader.get<uint32_t>();
    if (version == kTraceVersionLegacy) {
        // v1 has no columnar image to adopt: encode while parsing.
        return parseV1(reader, name_out, whence);
    }
    if (version != kTraceVersion)
        throw std::runtime_error(
            whence + ": unsupported trace file version " +
            std::to_string(version) + " (expected " +
            std::to_string(kTraceVersionLegacy) + " or " +
            std::to_string(kTraceVersion) + ")");
    return openCompactContainer(reader.rest(), std::move(buffer),
                                name_out, whence);
}

} // namespace

void
writeTrace(std::ostream &out, const CompactTrace &trace,
           const std::string &name)
{
    put(out, kTraceMagic);
    put(out, kTraceVersion);
    const std::vector<uint8_t> image =
        serializeCompactTrace(trace, name);
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out)
        throw std::runtime_error("trace write failed");
}

void
writeTrace(std::ostream &out, const std::vector<MicroOp> &ops,
           const std::string &name)
{
    writeTrace(out, CompactTrace::encode(ops), name);
}

void
writeTraceV1(std::ostream &out, const std::vector<MicroOp> &ops,
             const std::string &name)
{
    put(out, kTraceMagic);
    put(out, kTraceVersionLegacy);
    put(out, static_cast<uint32_t>(name.size()));
    out.write(name.data(),
              static_cast<std::streamsize>(name.size()));
    put(out, static_cast<uint64_t>(ops.size()));
    for (const MicroOp &op : ops) {
        put(out, op.pc);
        put(out, op.nextPc);
        put(out, op.memAddr);
        put(out, op.selector);
        put(out, static_cast<uint8_t>(op.cls));
        put(out, static_cast<uint8_t>(op.branch));
        put(out, static_cast<uint8_t>(op.taken ? 1 : 0));
        put(out, op.dstReg);
        put(out, op.srcRegs[0]);
        put(out, op.srcRegs[1]);
    }
    if (!out)
        throw std::runtime_error("trace write failed");
}

CompactTrace
readCompactTrace(std::istream &in, std::string &name_out)
{
    return parseTrace(slurp(in), name_out, "trace stream");
}

std::vector<MicroOp>
readTrace(std::istream &in, std::string &name_out)
{
    return readCompactTrace(in, name_out).decodeAll();
}

void
saveTraceFile(const std::string &path, const CompactTrace &trace,
              const std::string &name)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot open " + path +
                                 " for writing");
    writeTrace(out, trace, name);
}

void
saveTraceFile(const std::string &path, const std::vector<MicroOp> &ops,
              const std::string &name)
{
    saveTraceFile(path, CompactTrace::encode(ops), name);
}

CompactTrace
loadCompactTraceFile(const std::string &path, std::string &name_out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    return parseTrace(slurp(in), name_out, path);
}

std::vector<MicroOp>
loadTraceFile(const std::string &path, std::string &name_out)
{
    return loadCompactTraceFile(path, name_out).decodeAll();
}

} // namespace tpred
