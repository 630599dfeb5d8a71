#include "trace/segmented_io.hh"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32c.hh"

namespace tpred
{

namespace
{

// The envelope records, shared with the plain container
// (compact_io.cc); duplicated here because the segmented layout
// reinterprets two header fields (sectionCount = segment count,
// totalCrc = metadata-only CRC) and the plain reader deliberately
// keeps its records private.

struct FileHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t opCount;
    uint32_t flags;
    uint32_t nameLen;
    uint32_t sectionCount;  ///< segmented: number of segments
    uint32_t headerCrc;     ///< CRC32C of the 28 bytes preceding it
};
static_assert(sizeof(FileHeader) == 32);

struct Footer
{
    uint32_t magic;
    uint32_t totalCrc;      ///< segmented: metadata CRC (header+name,
                            ///< then index bytes)
    uint64_t fileLen;
    uint64_t reserved;
};
static_assert(sizeof(Footer) == 24);

constexpr uint32_t kFlagFastBranchScan = 1u << 0;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint32_t kMaxSegments = 1u << 24;

inline uint64_t
align8(uint64_t at)
{
    return (at + 7) & ~uint64_t{7};
}

[[noreturn]] void
fail(const std::string &whence, const std::string &what)
{
    throw CompactFormatError(whence + ": " + what);
}

uint32_t
metadataCrc(std::span<const uint8_t> header_name,
            std::span<const uint8_t> index)
{
    uint32_t crc = crc32cUpdate(0, header_name.data(),
                                header_name.size());
    return crc32cUpdate(crc, index.data(), index.size());
}

} // namespace

uint64_t
segmentedHeaderMaxBytes()
{
    return sizeof(FileHeader) + kMaxNameLen;
}

SegmentedHeaderInfo
parseSegmentedHeader(std::span<const uint8_t> head,
                     const std::string &whence)
{
    if (head.size() < sizeof(FileHeader))
        fail(whence, "truncated container (" +
                         std::to_string(head.size()) + " bytes)");
    FileHeader h;
    std::memcpy(&h, head.data(), sizeof(h));
    if (h.magic != kCompactMagic)
        fail(whence, "not a compact trace container (bad magic)");
    if (h.version < 2 || h.version > kCompactVersion)
        fail(whence, "unsupported segmented container version " +
                         std::to_string(h.version));
    if (crc32c(head.data(), offsetof(FileHeader, headerCrc)) !=
        h.headerCrc)
        fail(whence, "header checksum mismatch");
    if (!(h.flags & kCompactFlagSegmented))
        fail(whence, "not a segmented container (plain layout; use "
                     "openCompactContainer)");
    if (h.nameLen > kMaxNameLen)
        fail(whence, "implausible stream name length");
    if (h.sectionCount == 0 || h.sectionCount > kMaxSegments)
        fail(whence, "implausible segment count " +
                         std::to_string(h.sectionCount));
    if (head.size() < sizeof(FileHeader) + h.nameLen)
        fail(whence, "truncated stream name");

    SegmentedHeaderInfo info;
    info.name.assign(
        reinterpret_cast<const char *>(head.data()) + sizeof(FileHeader),
        h.nameLen);
    info.totalOps = h.opCount;
    info.version = h.version;
    info.segmentCount = h.sectionCount;
    info.fastBranchScan = (h.flags & kFlagFastBranchScan) != 0;
    info.headerNameBytes = sizeof(FileHeader) + h.nameLen;
    info.firstSegmentOffset = align8(info.headerNameBytes);
    return info;
}

uint64_t
segmentedTailBytes(uint32_t segment_count)
{
    return sizeof(Footer) +
           uint64_t{segment_count} * sizeof(SegmentRecord);
}

std::vector<SegmentRecord>
parseSegmentedTail(std::span<const uint8_t> tail,
                   std::span<const uint8_t> header_name,
                   const SegmentedHeaderInfo &header, uint64_t file_len,
                   const std::string &whence)
{
    const uint64_t index_bytes =
        uint64_t{header.segmentCount} * sizeof(SegmentRecord);
    if (tail.size() != index_bytes + sizeof(Footer))
        fail(whence, "segment index/footer size mismatch");
    if (header.firstSegmentOffset + tail.size() > file_len)
        fail(whence, "truncated segmented container");

    Footer footer;
    std::memcpy(&footer, tail.data() + index_bytes, sizeof(footer));
    if (footer.magic != kCompactFooterMagic)
        fail(whence, "missing container footer (truncated file?)");
    if (footer.fileLen != file_len)
        fail(whence, "length mismatch: footer records " +
                         std::to_string(footer.fileLen) +
                         " bytes, file has " +
                         std::to_string(file_len));
    if (metadataCrc(header_name, tail.first(index_bytes)) !=
        footer.totalCrc)
        fail(whence, "segment index checksum mismatch (corrupt "
                     "metadata)");
    // The reserved word sits outside the metadata CRC (which covers
    // header + index only); reject any damage to it explicitly.
    if (footer.reserved != 0)
        fail(whence, "nonzero reserved footer field");

    std::vector<SegmentRecord> segments(header.segmentCount);
    std::memcpy(segments.data(), tail.data(), index_bytes);

    const uint64_t index_offset = file_len - tail.size();
    uint64_t next_offset = header.firstSegmentOffset;
    uint64_t next_op = 0;
    uint64_t next_branch = 0;
    for (size_t i = 0; i < segments.size(); ++i) {
        const SegmentRecord &rec = segments[i];
        const std::string label = "segment " + std::to_string(i);
        if (rec.offset != next_offset)
            fail(whence, label + " offset out of sequence");
        if (rec.byteLen == 0 || rec.byteLen % 8 != 0 ||
            rec.offset + rec.byteLen < rec.offset ||
            rec.offset + rec.byteLen > index_offset)
            fail(whence, label + " payload out of bounds");
        if (rec.opCount == 0)
            fail(whence, label + " is empty");
        if (rec.firstOp != next_op)
            fail(whence, label + " op index out of sequence");
        if (rec.firstBranch != next_branch)
            fail(whence, label + " branch index out of sequence");
        next_offset = rec.offset + rec.byteLen;
        next_op += rec.opCount;
        next_branch += rec.branchCount;
    }
    if (next_offset != index_offset)
        fail(whence, "segment payloads do not fill the container");
    if (next_op != header.totalOps)
        fail(whence, "segment op counts do not sum to the header op "
                     "count");
    return segments;
}

// ---------------------------------------------------------------------
// SegmentedFileWriter

SegmentedFileWriter::SegmentedFileWriter(std::string path,
                                         std::string_view name,
                                         size_t segment_ops)
    : path_(std::move(path)),
      tempPath_(path_ + ".tmp." + std::to_string(getpid())),
      name_(name),
      segmentOps_(segment_ops)
{
    if (segmentOps_ == 0)
        throw std::invalid_argument("segment_ops must be positive");
    if (name_.size() > kMaxNameLen)
        fail(path_, "stream name too long");
    file_ = std::fopen(tempPath_.c_str(), "wb");
    if (!file_)
        fail(tempPath_, std::string("cannot create: ") +
                            std::strerror(errno));

    // Placeholder header (rewritten by finish()) + name + padding.
    headerName_.resize(sizeof(FileHeader) + name_.size(), 0);
    std::memcpy(headerName_.data() + sizeof(FileHeader), name_.data(),
                name_.size());
    writeOffset_ = align8(headerName_.size());
    std::vector<uint8_t> prefix(writeOffset_, 0);
    std::memcpy(prefix.data() + sizeof(FileHeader), name_.data(),
                name_.size());
    if (std::fwrite(prefix.data(), 1, prefix.size(), file_) !=
        prefix.size())
        fail(tempPath_, "short write");
}

SegmentedFileWriter::~SegmentedFileWriter()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    if (!finished_)
        ::unlink(tempPath_.c_str());
}

void
SegmentedFileWriter::append(const MicroOp &op)
{
    if (finished_ || !file_)
        fail(path_, "append after finish");
    segment_.append(op);
    if (segment_.size() == segmentOps_)
        writeSegment();
}

void
SegmentedFileWriter::writeSegment()
{
    if (index_.size() >= kMaxSegments)
        fail(path_, "too many segments");
    const CompactTrace segment = segment_.finish();

    // Segments do not repeat the stream name; the envelope carries it.
    const std::vector<uint8_t> image =
        serializeCompactTrace(segment, "");

    SegmentRecord rec;
    rec.offset = writeOffset_;
    rec.byteLen = image.size();
    rec.opCount = segment.size();
    rec.branchCount = segment.branchPositions().size();
    rec.firstOp = totalOps_;
    rec.firstBranch = totalBranches_;
    rec.crc = crc32c(image.data(), image.size());

    if (std::fwrite(image.data(), 1, image.size(), file_) !=
        image.size())
        fail(tempPath_, "short write");

    index_.push_back(rec);
    writeOffset_ += image.size();
    totalOps_ += segment.size();
    totalBranches_ += rec.branchCount;
    allFastScan_ = allFastScan_ && segment.fastBranchScan();
}

void
SegmentedFileWriter::finish()
{
    if (finished_ || !file_)
        fail(path_, "finish called twice");
    if (segment_.size() != 0)
        writeSegment();
    if (index_.empty())
        fail(path_, "segmented container needs at least one segment");

    const uint64_t index_bytes = index_.size() * sizeof(SegmentRecord);
    const uint64_t file_len =
        writeOffset_ + index_bytes + sizeof(Footer);

    FileHeader header{};
    header.magic = kCompactMagic;
    header.version = kCompactVersion;
    header.opCount = totalOps_;
    header.flags = kCompactFlagSegmented |
                   (allFastScan_ ? kFlagFastBranchScan : 0);
    header.nameLen = static_cast<uint32_t>(name_.size());
    header.sectionCount = static_cast<uint32_t>(index_.size());
    std::memcpy(headerName_.data(), &header, sizeof(header));
    header.headerCrc =
        crc32c(headerName_.data(), offsetof(FileHeader, headerCrc));
    std::memcpy(headerName_.data(), &header, sizeof(header));

    const auto *index_raw =
        reinterpret_cast<const uint8_t *>(index_.data());
    Footer footer{};
    footer.magic = kCompactFooterMagic;
    footer.totalCrc = metadataCrc(
        headerName_, std::span<const uint8_t>(index_raw, index_bytes));
    footer.fileLen = file_len;

    if (std::fwrite(index_raw, 1, index_bytes, file_) != index_bytes ||
        std::fwrite(&footer, 1, sizeof(footer), file_) !=
            sizeof(footer))
        fail(tempPath_, "short write");

    // Rewrite the header now that the counts are known.
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(headerName_.data(), 1, sizeof(FileHeader), file_) !=
            sizeof(FileHeader))
        fail(tempPath_, "header rewrite failed");

    if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0)
        fail(tempPath_, "flush failed");
    std::fclose(file_);
    file_ = nullptr;

    if (std::rename(tempPath_.c_str(), path_.c_str()) != 0)
        fail(path_, std::string("rename failed: ") +
                        std::strerror(errno));
    finished_ = true;
}

void
writeSegmentedTraceFile(const std::string &path,
                        const CompactTrace &trace, std::string_view name,
                        size_t segment_ops)
{
    SegmentedFileWriter writer(path, name, segment_ops);
    trace.forEachOp([&writer](const MicroOp &op) { writer.append(op); });
    writer.finish();
}

} // namespace tpred
