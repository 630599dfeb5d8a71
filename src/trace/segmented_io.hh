/**
 * @file
 * Segmented "TPCC" container: fixed-size CompactTrace segments inside
 * the existing envelope, each a complete, individually-CRC32C'd plain
 * container image, plus a segment index carrying per-segment op and
 * branch-stream offsets.  See docs/trace_format.md for the byte
 * layout.
 *
 * The point of the format is *streaming*: a corpus trace no longer
 * needs to be fully resident to replay.  A reader maps one segment
 * window at a time (corpus/segmented_trace.hh), so peak memory is
 * O(segment size), not O(trace size), and the per-segment
 * firstOp/firstBranch index records give sharded replay its exact
 * checkpoint boundaries (harness/shard_replay.hh).
 *
 * File layout (all little-endian, 8-byte aligned):
 *
 *   FileHeader     32 B   magic TPCC, version 2, opCount = total ops,
 *                         flags = kCompactFlagSegmented (| fast-scan
 *                         when every segment supports it),
 *                         sectionCount = segment count, headerCrc
 *   name           nameLen B, then padding to 8
 *   segment 0      a complete serializeCompactTrace() image
 *   ...            (each image length is already a multiple of 8)
 *   segment N-1
 *   index          N x SegmentRecord (56 B each)
 *   Footer         24 B   magic TPCF, totalCrc = METADATA CRC (header
 *                         + name bytes, then index bytes; segment
 *                         payloads carry their own CRCs), fileLen
 *
 * The index lives at the *end* so SegmentedFileWriter can stream
 * segments to disk as they are produced; only the 32-byte header is
 * rewritten at finish().  Readers locate it from the footer:
 * indexOffset = fileLen - 24 - segmentCount * 56.
 */

#ifndef TPRED_TRACE_SEGMENTED_IO_HH
#define TPRED_TRACE_SEGMENTED_IO_HH

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/compact_io.hh"
#include "trace/compact_trace.hh"

namespace tpred
{

/** One entry of the segment index. */
struct SegmentRecord
{
    uint64_t offset = 0;       ///< absolute file offset of the image
    uint64_t byteLen = 0;      ///< image length (multiple of 8)
    uint64_t opCount = 0;      ///< ops encoded in this segment
    uint64_t branchCount = 0;  ///< control-transfer ops in this segment
    uint64_t firstOp = 0;      ///< global index of the segment's op 0
    uint64_t firstBranch = 0;  ///< global index of its first branch
    uint32_t crc = 0;          ///< CRC32C of the image bytes
    uint32_t reserved = 0;
};
static_assert(sizeof(SegmentRecord) == 56);

/** Parsed segmented-container header (fixed part + name). */
struct SegmentedHeaderInfo
{
    std::string name;            ///< recorded stream name
    uint64_t totalOps = 0;
    uint32_t version = 0;
    uint32_t segmentCount = 0;
    bool fastBranchScan = false;
    uint64_t firstSegmentOffset = 0; ///< align8(32 + nameLen)
    uint64_t headerNameBytes = 0;    ///< 32 + nameLen (metadata CRC)
};

/** Bytes of file head that always suffice for parseSegmentedHeader. */
uint64_t segmentedHeaderMaxBytes();

/**
 * Parses and validates the header + name at the start of a segmented
 * container.  @p head must hold at least the first
 * min(fileLen, segmentedHeaderMaxBytes()) bytes of the file.
 * @throws CompactFormatError when the bytes are not a segmented
 *         container (including a well-formed *plain* container).
 */
SegmentedHeaderInfo parseSegmentedHeader(std::span<const uint8_t> head,
                                         const std::string &whence);

/** Index + footer length for @p segment_count segments. */
uint64_t segmentedTailBytes(uint32_t segment_count);

/**
 * Parses and validates the segment index + footer at the end of the
 * file: footer magic and length, the metadata CRC over header-name
 * and index bytes, and per-record structure (8-aligned monotone
 * offsets within bounds, cumulative firstOp/firstBranch consistency,
 * op total matching the header).  Segment *payload* CRCs are NOT
 * checked here — verify each image via openCompactContainer when the
 * window is mapped.
 *
 * @param tail        The last segmentedTailBytes(segmentCount) bytes.
 * @param header_name The first header.headerNameBytes bytes.
 * @param header      Result of parseSegmentedHeader on the same file.
 * @param file_len    Total file length.
 */
std::vector<SegmentRecord>
parseSegmentedTail(std::span<const uint8_t> tail,
                   std::span<const uint8_t> header_name,
                   const SegmentedHeaderInfo &header, uint64_t file_len,
                   const std::string &whence);

/**
 * Streaming writer: ops are encoded into the current segment as they
 * are appended, and each segment goes to a temp file as soon as it
 * holds @p segment_ops ops, so only one segment's columns are ever
 * resident.  finish() writes the last (possibly shorter) segment,
 * appends the index + footer, rewrites the header with the final
 * counts, fsyncs and atomically renames onto @p path.  If the writer
 * is destroyed unfinished, the temp file is removed.
 */
class SegmentedFileWriter
{
  public:
    /** @throws std::invalid_argument when @p segment_ops is 0. */
    SegmentedFileWriter(std::string path, std::string_view name,
                        size_t segment_ops);
    ~SegmentedFileWriter();

    SegmentedFileWriter(const SegmentedFileWriter &) = delete;
    SegmentedFileWriter &operator=(const SegmentedFileWriter &) = delete;

    /** Encodes @p op as the next op of the stream. */
    void append(const MicroOp &op);

    /** Finalizes the file; no further append() calls allowed. */
    void finish();

    uint64_t totalOps() const { return totalOps_; }
    uint64_t totalBranches() const { return totalBranches_; }
    uint64_t segmentCount() const
    {
        return static_cast<uint64_t>(index_.size());
    }

  private:
    /** Serializes the built segment and appends it to the file. */
    void writeSegment();

    std::string path_;
    std::string tempPath_;
    std::string name_;
    size_t segmentOps_;
    CompactTrace::Builder segment_;   ///< the segment being built
    std::FILE *file_ = nullptr;
    std::vector<SegmentRecord> index_;
    std::vector<uint8_t> headerName_; ///< header + name image
    uint64_t writeOffset_ = 0;
    uint64_t totalOps_ = 0;
    uint64_t totalBranches_ = 0;
    bool allFastScan_ = true;
    bool finished_ = false;
};

/**
 * Writes @p trace to @p path as a segmented container of consecutive
 * @p segment_ops-op segments (the last may be shorter).  Each segment
 * re-encodes its slice, so decoding segment k reproduces ops
 * [k*segment_ops, ...) bit-exactly; only the segment being built is
 * resident besides @p trace.
 */
void writeSegmentedTraceFile(const std::string &path,
                             const CompactTrace &trace,
                             std::string_view name, size_t segment_ops);

} // namespace tpred

#endif // TPRED_TRACE_SEGMENTED_IO_HH
