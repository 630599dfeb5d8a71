#include "corpus/corpus.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "corpus/mapped_file.hh"
#include "corpus/segmented_trace.hh"
#include "trace/compact_io.hh"
#include "trace/stream_io.hh"
#include "trace/trace_source.hh"

namespace fs = std::filesystem;

namespace tpred
{

namespace
{

constexpr const char *kEntrySuffix = ".tpct";
constexpr const char *kSegmentedSuffix = ".tpcs";
constexpr const char *kStreamSuffix = ".tpbs";
constexpr const char *kQuarantineSuffix = ".quarantined";
constexpr const char *kTempMarker = ".tmp";

/** Minimal JSON string escaping (names are workload identifiers). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Current UTC time as ISO 8601 (manifest provenance only). */
std::string
isoNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/**
 * Inverts CorpusManager::fileName().  Workload names may contain
 * '-', so the numeric fields are parsed from the right.
 * @return true when @p file has the expected shape.
 */
bool
parseFileName(const std::string &file, CorpusKey &key)
{
    if (!file.ends_with(kEntrySuffix))
        return false;
    const std::string stem =
        file.substr(0, file.size() - std::strlen(kEntrySuffix));
    const size_t c_at = stem.rfind("-c");
    if (c_at == std::string::npos)
        return false;
    const size_t o_at = stem.rfind("-o", c_at - 1);
    if (o_at == std::string::npos)
        return false;
    const size_t s_at = stem.rfind("-s", o_at - 1);
    if (s_at == std::string::npos || s_at == 0)
        return false;
    try {
        key.workload = stem.substr(0, s_at);
        key.seed = std::stoull(stem.substr(s_at + 2, o_at - s_at - 2));
        key.ops = std::stoull(stem.substr(o_at + 2, c_at - o_at - 2));
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

/**
 * Inverts CorpusManager::streamFileName():
 * {workload}-s{seed}-o{ops}-b{v}.tpbs.
 */
bool
parseStreamFileName(const std::string &file, CorpusKey &key)
{
    if (!file.ends_with(kStreamSuffix))
        return false;
    const std::string stem =
        file.substr(0, file.size() - std::strlen(kStreamSuffix));
    const size_t b_at = stem.rfind("-b");
    if (b_at == std::string::npos)
        return false;
    const size_t o_at = stem.rfind("-o", b_at - 1);
    if (o_at == std::string::npos)
        return false;
    const size_t s_at = stem.rfind("-s", o_at - 1);
    if (s_at == std::string::npos || s_at == 0)
        return false;
    try {
        key.workload = stem.substr(0, s_at);
        key.seed = std::stoull(stem.substr(s_at + 2, o_at - s_at - 2));
        key.ops = std::stoull(stem.substr(o_at + 2, b_at - o_at - 2));
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

/** Stable identity string for orphan matching in gc(). */
std::string
keyId(const CorpusKey &key)
{
    return key.workload + "|" + std::to_string(key.seed) + "|" +
           std::to_string(key.ops);
}

/**
 * Inverts CorpusManager::segmentedFileName():
 * {workload}-s{seed}-o{ops}-g{segOps}-c{v}.tpcs.
 */
bool
parseSegmentedFileName(const std::string &file, CorpusKey &key,
                       uint64_t &segment_ops)
{
    if (!file.ends_with(kSegmentedSuffix))
        return false;
    const std::string stem =
        file.substr(0, file.size() - std::strlen(kSegmentedSuffix));
    const size_t c_at = stem.rfind("-c");
    if (c_at == std::string::npos)
        return false;
    const size_t g_at = stem.rfind("-g", c_at - 1);
    if (g_at == std::string::npos)
        return false;
    const size_t o_at = stem.rfind("-o", g_at - 1);
    if (o_at == std::string::npos)
        return false;
    const size_t s_at = stem.rfind("-s", o_at - 1);
    if (s_at == std::string::npos || s_at == 0)
        return false;
    try {
        key.workload = stem.substr(0, s_at);
        key.seed = std::stoull(stem.substr(s_at + 2, o_at - s_at - 2));
        key.ops = std::stoull(stem.substr(o_at + 2, g_at - o_at - 2));
        segment_ops =
            std::stoull(stem.substr(g_at + 2, c_at - g_at - 2));
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

/** Writes @p data to @p path via temp file + fsync + atomic rename. */
void
atomicWrite(const std::string &path, const void *data, size_t bytes)
{
    const std::string tmp =
        path + kTempMarker + std::to_string(::getpid());
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw std::runtime_error("cannot create " + tmp + ": " +
                                 std::strerror(errno));
    const char *p = static_cast<const char *>(data);
    size_t left = bytes;
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int saved = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            throw std::runtime_error("write to " + tmp + " failed: " +
                                     std::strerror(saved));
        }
        p += n;
        left -= static_cast<size_t>(n);
    }
    // The rename is only atomic-durable if the data reached the disk
    // first.
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw std::runtime_error("fsync of " + tmp + " failed: " +
                                 std::strerror(errno));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        ::unlink(tmp.c_str());
        throw std::runtime_error("rename to " + path + " failed: " +
                                 std::strerror(saved));
    }
}

} // namespace

const char *
corpusArtifactName(CorpusArtifact kind)
{
    switch (kind) {
      case CorpusArtifact::Plain:
        return "plain";
      case CorpusArtifact::Segmented:
        return "segmented";
      case CorpusArtifact::BranchStream:
        return "branch-stream";
    }
    return "?";
}

CorpusManager::CorpusManager(std::string dir,
                             obs::MetricsRegistry *metrics)
    : dir_(std::move(dir)),
      owned_(metrics == nullptr
                 ? std::make_unique<obs::MetricsRegistry>()
                 : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_.get()),
      hits_(metrics_->counter("corpus.hits")),
      misses_(metrics_->counter("corpus.misses")),
      stores_(metrics_->counter("corpus.stores")),
      quarantined_(metrics_->counter("corpus.quarantined")),
      bytesLoaded_(metrics_->counter("corpus.bytes_loaded")),
      bytesStored_(metrics_->counter("corpus.bytes_stored")),
      fsyncs_(metrics_->counter("corpus.fsyncs")),
      streamHits_(metrics_->counter("stream_corpus.hits")),
      streamMisses_(metrics_->counter("stream_corpus.misses")),
      streamStores_(metrics_->counter("stream_corpus.stores")),
      streamQuarantined_(
          metrics_->counter("stream_corpus.quarantined")),
      streamBytesLoaded_(
          metrics_->counter("stream_corpus.bytes_loaded")),
      streamBytesStored_(
          metrics_->counter("stream_corpus.bytes_stored"))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        throw std::runtime_error("cannot create corpus directory " +
                                 dir_ + ": " + ec.message());
}

std::string
CorpusManager::fileName(const CorpusKey &key)
{
    return key.workload + "-s" + std::to_string(key.seed) + "-o" +
           std::to_string(key.ops) + "-c" +
           std::to_string(kCompactVersion) + kEntrySuffix;
}

std::string
CorpusManager::pathFor(const CorpusKey &key) const
{
    return (fs::path(dir_) / fileName(key)).string();
}

void
CorpusManager::quarantine(const std::string &path,
                          const std::string &why,
                          obs::Counter &counter)
{
    const std::string target = path + kQuarantineSuffix;
    std::error_code ec;
    fs::remove(target, ec);  // a previous quarantine of the same name
    fs::rename(path, target, ec);
    counter.inc();
    std::fprintf(stderr,
                 "tpred-corpus: quarantined %s (%s)%s\n", path.c_str(),
                 why.c_str(),
                 ec ? " [rename failed; file left in place]" : "");
}

std::shared_ptr<const CompactTrace>
CorpusManager::load(const CorpusKey &key, std::string *name_out)
{
    const std::string path = pathFor(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        misses_.inc();
        return nullptr;
    }
    try {
        std::shared_ptr<MappedFile> mapping = MappedFile::open(path);
        const uint64_t bytes = mapping->size();
        std::string name;
        CompactTrace trace = openCompactContainer(
            mapping->bytes(), mapping, name, path);
        if (name_out != nullptr)
            *name_out = name;
        hits_.inc();
        bytesLoaded_.inc(bytes);
        return std::make_shared<const CompactTrace>(std::move(trace));
    } catch (const std::exception &e) {
        // Never trust a damaged file: set it aside and regenerate.
        quarantine(path, e.what(), quarantined_);
        misses_.inc();
        return nullptr;
    }
}

void
CorpusManager::store(const CorpusKey &key, const CompactTrace &trace,
                     const std::string &name)
{
    const std::vector<uint8_t> image =
        serializeCompactTrace(trace, name);
    atomicWrite(pathFor(key), image.data(), image.size());
    fsyncs_.inc();
    stores_.inc();
    bytesStored_.inc(image.size());
    refreshManifest();
}

std::string
CorpusManager::segmentedFileName(const CorpusKey &key,
                                 size_t segment_ops)
{
    return key.workload + "-s" + std::to_string(key.seed) + "-o" +
           std::to_string(key.ops) + "-g" +
           std::to_string(segment_ops) + "-c" +
           std::to_string(kCompactVersion) + kSegmentedSuffix;
}

std::string
CorpusManager::segmentedPathFor(const CorpusKey &key,
                                size_t segment_ops) const
{
    return (fs::path(dir_) / segmentedFileName(key, segment_ops))
        .string();
}

std::shared_ptr<const SegmentedTrace>
CorpusManager::loadSegmented(const CorpusKey &key, size_t segment_ops)
{
    const std::string path = segmentedPathFor(key, segment_ops);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        misses_.inc();
        return nullptr;
    }
    try {
        auto trace = SegmentedTrace::open(path);
        // Full verification up front, one window at a time: a
        // defective segment must surface here, not mid-replay.
        trace->verifyAllSegments();
        hits_.inc();
        bytesLoaded_.inc(trace->fileBytes());
        return trace;
    } catch (const std::exception &e) {
        quarantine(path, e.what(), quarantined_);
        misses_.inc();
        return nullptr;
    }
}

void
CorpusManager::storeSegmented(const CorpusKey &key,
                              const CompactTrace &trace,
                              const std::string &name,
                              size_t segment_ops)
{
    const std::string path = segmentedPathFor(key, segment_ops);
    writeSegmentedTraceFile(path, trace, name, segment_ops);
    fsyncs_.inc();
    stores_.inc();
    std::error_code ec;
    bytesStored_.inc(fs::file_size(path, ec));
    refreshManifest();
}

void
CorpusManager::storeSegmentedFromSource(const CorpusKey &key,
                                        TraceSource &source,
                                        const std::string &name,
                                        size_t segment_ops)
{
    const std::string path = segmentedPathFor(key, segment_ops);
    SegmentedFileWriter writer(path, name, segment_ops);

    // The writer encodes ops as they are pulled: nothing beyond the
    // columns of the segment being built is ever resident.
    uint64_t pulled = 0;
    MicroOp op;
    while (pulled < key.ops && source.next(op)) {
        writer.append(op);
        ++pulled;
    }
    writer.finish();

    fsyncs_.inc();
    stores_.inc();
    std::error_code ec;
    bytesStored_.inc(fs::file_size(path, ec));
    refreshManifest();
}

std::string
CorpusManager::streamFileName(const CorpusKey &key)
{
    return key.workload + "-s" + std::to_string(key.seed) + "-o" +
           std::to_string(key.ops) + "-b" +
           std::to_string(kStreamVersion) + kStreamSuffix;
}

std::string
CorpusManager::streamPathFor(const CorpusKey &key) const
{
    return (fs::path(dir_) / streamFileName(key)).string();
}

std::shared_ptr<const BranchStream>
CorpusManager::loadStream(const CorpusKey &key, std::string *name_out)
{
    const std::string path = streamPathFor(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        streamMisses_.inc();
        return nullptr;
    }
    try {
        std::shared_ptr<MappedFile> mapping = MappedFile::open(path);
        const uint64_t bytes = mapping->size();
        std::string name;
        BranchStream stream = openBranchStreamContainer(
            mapping->bytes(), mapping, name, path);
        if (name_out != nullptr)
            *name_out = name;
        streamHits_.inc();
        streamBytesLoaded_.inc(bytes);
        return std::make_shared<const BranchStream>(std::move(stream));
    } catch (const std::exception &e) {
        // Streams are derived data: quarantine and re-extract.
        quarantine(path, e.what(), streamQuarantined_);
        streamMisses_.inc();
        return nullptr;
    }
}

void
CorpusManager::storeStream(const CorpusKey &key,
                           const BranchStream &stream,
                           const std::string &name)
{
    const std::vector<uint8_t> image =
        serializeBranchStream(stream, name);
    atomicWrite(streamPathFor(key), image.data(), image.size());
    fsyncs_.inc();
    streamStores_.inc();
    streamBytesStored_.inc(image.size());
    refreshManifest();
}

std::vector<CorpusEntry>
CorpusManager::list(bool verify) const
{
    std::vector<CorpusEntry> entries;
    for (const auto &de : fs::directory_iterator(dir_)) {
        if (!de.is_regular_file())
            continue;
        const std::string file = de.path().filename().string();
        if (file.ends_with(kStreamSuffix)) {
            CorpusEntry entry;
            entry.file = file;
            entry.kind = CorpusArtifact::BranchStream;
            parseStreamFileName(file, entry.key);
            try {
                const auto mapping =
                    MappedFile::open(de.path().string());
                entry.fileBytes = mapping->size();
                if (verify) {
                    std::string name;
                    const BranchStream stream =
                        openBranchStreamContainer(mapping->bytes(),
                                                  mapping, name,
                                                  de.path().string());
                    entry.name = name;
                    entry.opCount = stream.opCount;
                    entry.branchCount = stream.size();
                } else {
                    const StreamContainerInfo info =
                        peekBranchStreamContainer(mapping->bytes(),
                                                  de.path().string());
                    entry.name = info.name;
                    entry.opCount = info.opCount;
                    entry.branchCount = info.branchCount;
                }
                entry.ok = true;
            } catch (const std::exception &e) {
                entry.ok = false;
                entry.error = e.what();
            }
            entries.push_back(std::move(entry));
            continue;
        }
        if (file.ends_with(kSegmentedSuffix)) {
            CorpusEntry entry;
            entry.file = file;
            entry.kind = CorpusArtifact::Segmented;
            uint64_t seg_ops = 0;
            parseSegmentedFileName(file, entry.key, seg_ops);
            try {
                const auto trace =
                    SegmentedTrace::open(de.path().string());
                if (verify)
                    trace->verifyAllSegments();
                entry.name = trace->name();
                entry.opCount = trace->totalOps();
                entry.branchCount = trace->totalBranches();
                entry.fileBytes = trace->fileBytes();
                entry.segmentCount = trace->segmentCount();
                entry.ok = true;
            } catch (const std::exception &e) {
                entry.ok = false;
                entry.error = e.what();
            }
            entries.push_back(std::move(entry));
            continue;
        }
        if (!file.ends_with(kEntrySuffix))
            continue;
        CorpusEntry entry;
        entry.file = file;
        entry.kind = CorpusArtifact::Plain;
        parseFileName(file, entry.key);
        try {
            const auto mapping = MappedFile::open(de.path().string());
            entry.fileBytes = mapping->size();
            if (verify) {
                std::string name;
                const CompactTrace trace = openCompactContainer(
                    mapping->bytes(), mapping, name,
                    de.path().string());
                entry.name = name;
                entry.opCount = trace.size();
                entry.branchCount = trace.branchPositions().size();
            } else {
                const CompactContainerInfo info = peekCompactContainer(
                    mapping->bytes(), de.path().string());
                entry.name = info.name;
                entry.opCount = info.opCount;
                entry.branchCount = info.branchCount;
            }
            entry.ok = true;
        } catch (const std::exception &e) {
            entry.ok = false;
            entry.error = e.what();
        }
        entries.push_back(std::move(entry));
    }
    std::sort(entries.begin(), entries.end(),
              [](const CorpusEntry &a, const CorpusEntry &b) {
                  return a.file < b.file;
              });
    return entries;
}

size_t
CorpusManager::gc(uint64_t max_bytes)
{
    size_t removed = 0;
    struct Live
    {
        fs::path path;
        uint64_t bytes;
        fs::file_time_type mtime;
        std::string id;  ///< keyId() for orphan accounting
    };
    std::vector<Live> live;
    /// Valid .tpbs files and the trace key each one derives from.
    std::vector<std::pair<fs::path, std::string>> streams;
    /// keyId() -> number of live trace files (plain + segmented).
    std::map<std::string, size_t> parents;
    uint64_t total = 0;

    for (const auto &de : fs::directory_iterator(dir_)) {
        if (!de.is_regular_file())
            continue;
        const std::string file = de.path().filename().string();
        const bool stale =
            file.ends_with(kQuarantineSuffix) ||
            file.find(kTempMarker) != std::string::npos;
        if (stale) {
            std::error_code ec;
            if (fs::remove(de.path(), ec))
                ++removed;
            continue;
        }
        if (file.ends_with(kStreamSuffix)) {
            CorpusKey key;
            const bool named = parseStreamFileName(file, key);
            try {
                if (!named)
                    throw CompactFormatError(
                        de.path().string() +
                        ": unparseable stream file name");
                const auto mapping =
                    MappedFile::open(de.path().string());
                std::string name;
                openBranchStreamContainer(mapping->bytes(), mapping,
                                          name, de.path().string());
                streams.emplace_back(de.path(), keyId(key));
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "tpred-corpus: gc removing %s (%s)\n",
                             de.path().c_str(), e.what());
                std::error_code ec;
                if (fs::remove(de.path(), ec))
                    ++removed;
            }
            continue;
        }
        if (file.ends_with(kSegmentedSuffix)) {
            try {
                const auto trace =
                    SegmentedTrace::open(de.path().string());
                trace->verifyAllSegments();
                CorpusKey key;
                uint64_t seg_ops = 0;
                std::string id;
                if (parseSegmentedFileName(file, key, seg_ops))
                    id = keyId(key);
                live.push_back({de.path(), trace->fileBytes(),
                                fs::last_write_time(de.path()), id});
                total += trace->fileBytes();
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "tpred-corpus: gc removing %s (%s)\n",
                             de.path().c_str(), e.what());
                std::error_code ec;
                if (fs::remove(de.path(), ec))
                    ++removed;
            }
            continue;
        }
        if (!file.ends_with(kEntrySuffix))
            continue;
        try {
            const auto mapping = MappedFile::open(de.path().string());
            std::string name;
            openCompactContainer(mapping->bytes(), mapping, name,
                                 de.path().string());
            CorpusKey key;
            std::string id;
            if (parseFileName(file, key))
                id = keyId(key);
            live.push_back({de.path(), mapping->size(),
                            fs::last_write_time(de.path()), id});
            total += mapping->size();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "tpred-corpus: gc removing %s (%s)\n",
                         de.path().c_str(), e.what());
            std::error_code ec;
            if (fs::remove(de.path(), ec))
                ++removed;
        }
    }
    for (const Live &entry : live)
        if (!entry.id.empty())
            ++parents[entry.id];

    if (max_bytes > 0 && total > max_bytes) {
        std::sort(live.begin(), live.end(),
                  [](const Live &a, const Live &b) {
                      return a.mtime < b.mtime;
                  });
        for (const Live &entry : live) {
            if (total <= max_bytes)
                break;
            std::error_code ec;
            if (fs::remove(entry.path, ec)) {
                total -= entry.bytes;
                ++removed;
                if (!entry.id.empty())
                    --parents[entry.id];
            }
        }
    }

    // Streams are derived data: collect any whose parent trace —
    // plain or segmented, same (workload, seed, ops) — is gone,
    // including parents evicted just above.
    for (const auto &[path, id] : streams) {
        const auto it = parents.find(id);
        if (it != parents.end() && it->second > 0)
            continue;
        std::fprintf(stderr,
                     "tpred-corpus: gc removing %s (orphaned "
                     "branch-stream; parent trace removed)\n",
                     path.c_str());
        std::error_code ec;
        if (fs::remove(path, ec))
            ++removed;
    }

    refreshManifest();
    return removed;
}

std::string
CorpusManager::manifestPath() const
{
    return (fs::path(dir_) / "manifest.json").string();
}

void
CorpusManager::refreshManifest() const
{
    std::lock_guard<std::mutex> lock(manifestMutex_);

    // The manifest is derived state: rebuilt from the authoritative
    // file headers, so deleting it (or racing writers across
    // processes — last rename wins) loses nothing.
    std::string json = "{\n";
    json += "  \"format\": \"tpred-corpus-manifest\",\n";
    json += "  \"version\": 1,\n";
    json += "  \"generator\": \"" +
            jsonEscape(kGeneratorVersion) + "\",\n";
    json += "  \"container_version\": " +
            std::to_string(kCompactVersion) + ",\n";
    json += "  \"updated\": \"" + isoNow() + "\",\n";
    json += "  \"entries\": [";

    bool first = true;
    for (const auto &de : fs::directory_iterator(dir_)) {
        if (!de.is_regular_file())
            continue;
        const std::string file = de.path().filename().string();
        if (file.ends_with(kStreamSuffix)) {
            std::string entry = "\n    {\"file\": \"" +
                                jsonEscape(file) +
                                "\", \"kind\": \"branch-stream\"";
            CorpusKey key;
            if (parseStreamFileName(file, key)) {
                entry += ", \"workload\": \"" +
                         jsonEscape(key.workload) +
                         "\", \"seed\": " + std::to_string(key.seed) +
                         ", \"ops\": " + std::to_string(key.ops);
            }
            try {
                const auto mapping =
                    MappedFile::open(de.path().string());
                const StreamContainerInfo info =
                    peekBranchStreamContainer(mapping->bytes(),
                                              de.path().string());
                entry += ", \"name\": \"" + jsonEscape(info.name) +
                         "\", \"op_count\": " +
                         std::to_string(info.opCount) +
                         ", \"branch_count\": " +
                         std::to_string(info.branchCount) +
                         ", \"bytes\": " +
                         std::to_string(info.fileBytes) +
                         ", \"crc32c\": " +
                         std::to_string(info.totalCrc);
            } catch (const std::exception &e) {
                entry += ", \"error\": \"" + jsonEscape(e.what()) +
                         "\"";
            }
            entry += "}";
            json += (first ? "" : ",") + entry;
            first = false;
            continue;
        }
        if (file.ends_with(kSegmentedSuffix)) {
            std::string entry = "\n    {\"file\": \"" +
                                jsonEscape(file) + "\"";
            CorpusKey key;
            uint64_t seg_ops = 0;
            if (parseSegmentedFileName(file, key, seg_ops)) {
                entry += ", \"workload\": \"" +
                         jsonEscape(key.workload) +
                         "\", \"seed\": " + std::to_string(key.seed) +
                         ", \"ops\": " + std::to_string(key.ops) +
                         ", \"segment_ops\": " +
                         std::to_string(seg_ops);
            }
            try {
                const auto trace =
                    SegmentedTrace::open(de.path().string());
                entry += ", \"name\": \"" + jsonEscape(trace->name()) +
                         "\", \"op_count\": " +
                         std::to_string(trace->totalOps()) +
                         ", \"branch_count\": " +
                         std::to_string(trace->totalBranches()) +
                         ", \"bytes\": " +
                         std::to_string(trace->fileBytes()) +
                         ", \"segments\": " +
                         std::to_string(trace->segmentCount());
            } catch (const std::exception &e) {
                entry += ", \"error\": \"" + jsonEscape(e.what()) +
                         "\"";
            }
            entry += "}";
            json += (first ? "" : ",") + entry;
            first = false;
            continue;
        }
        if (!file.ends_with(kEntrySuffix))
            continue;
        std::string entry = "\n    {\"file\": \"" + jsonEscape(file) +
                            "\"";
        CorpusKey key;
        if (parseFileName(file, key)) {
            entry += ", \"workload\": \"" + jsonEscape(key.workload) +
                     "\", \"seed\": " + std::to_string(key.seed) +
                     ", \"ops\": " + std::to_string(key.ops);
        }
        try {
            const auto mapping = MappedFile::open(de.path().string());
            const CompactContainerInfo info = peekCompactContainer(
                mapping->bytes(), de.path().string());
            entry += ", \"name\": \"" + jsonEscape(info.name) +
                     "\", \"op_count\": " +
                     std::to_string(info.opCount) +
                     ", \"branch_count\": " +
                     std::to_string(info.branchCount) +
                     ", \"bytes\": " +
                     std::to_string(info.fileBytes) +
                     ", \"crc32c\": " +
                     std::to_string(info.totalCrc) +
                     ", \"fast_branch_scan\": " +
                     (info.fastBranchScan ? "true" : "false");
        } catch (const std::exception &e) {
            entry += ", \"error\": \"" + jsonEscape(e.what()) + "\"";
        }
        entry += "}";
        json += (first ? "" : ",") + entry;
        first = false;
    }
    json += "\n  ]\n}\n";

    try {
        atomicWrite(manifestPath(), json.data(), json.size());
        fsyncs_.inc();
    } catch (const std::exception &e) {
        // Advisory metadata only — never fail an experiment over it.
        std::fprintf(stderr,
                     "tpred-corpus: manifest refresh failed: %s\n",
                     e.what());
    }
}

} // namespace tpred
