#include "instrument.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench
{

namespace
{

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<uint64_t> t_open;

double
timevalSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Length of the union of [start, end) intervals, clipped to [lo, hi). */
double
coveredSeconds(std::vector<std::pair<double, double>> spans, double lo,
               double hi)
{
    std::sort(spans.begin(), spans.end());
    double covered = 0.0;
    double reach = lo;
    for (auto [s, e] : spans) {
        s = std::max(s, reach);
        e = std::min(e, hi);
        if (e > s) {
            covered += e - s;
            reach = e;
        }
    }
    return covered;
}

/** FNV-1a 64-bit digest of @p text, as 16 lowercase hex digits. */
std::string
digestOf(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return timevalSeconds(usage.ru_utime) + timevalSeconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

// ---------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------

double
Tracer::now() const
{
    return wallSeconds() - epoch_;
}

Tracer::Span
Tracer::span(const std::string &layer, const std::string &name,
             uint64_t parent)
{
    if (!recording_)
        return Span(nullptr, SpanRecord{});
    SpanRecord rec;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rec.id = nextId_++;
    }
    rec.parent = parent == kInherit ? current() : parent;
    rec.rep = rep_;
    rec.layer = layer;
    rec.name = name;
    t_open.push_back(rec.id);
    rec.start = now();
    return Span(this, std::move(rec));
}

Tracer::Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    rec_.end = tracer_->now();
    if (!t_open.empty() && t_open.back() == rec_.id)
        t_open.pop_back();
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_.push_back(std::move(rec_));
}

uint64_t
Tracer::current()
{
    return t_open.empty() ? 0 : t_open.back();
}

std::vector<double>
Tracer::selfTimesLocked() const
{
    std::map<uint64_t, std::vector<std::pair<double, double>>> children;
    for (const SpanRecord &s : spans_)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    std::vector<double> self;
    self.reserve(spans_.size());
    for (const SpanRecord &s : spans_) {
        const auto it = children.find(s.id);
        self.push_back((s.end - s.start) -
                       (it == children.end()
                            ? 0.0
                            : coveredSeconds(it->second, s.start, s.end)));
    }
    return self;
}

std::map<std::string, double>
Tracer::selfSeconds(bool timed) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = selfTimesLocked();
    std::map<std::string, double> by_layer;
    for (size_t i = 0; i < spans_.size(); ++i)
        if ((spans_[i].rep >= 0) == timed)
            by_layer[spans_[i].layer] += self[i];
    return by_layer;
}

std::map<std::string, double>
Tracer::spanSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> by_name;
    for (const SpanRecord &s : spans_)
        if (s.rep >= 0)
            by_name[s.name] += s.end - s.start;
    return by_name;
}

void
Tracer::write(const std::string &path,
              const std::map<std::string, std::string> &header) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = selfTimesLocked();

    std::ostringstream out;
    out << "{\n";
    for (const auto &[key, value] : header)
        out << "  " << jsonString(key) << ": " << jsonString(value)
            << ",\n";
    out << "  \"spans\": [";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"id\": %llu, \"parent\": %llu, "
                      "\"rep\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"self_s\": %.9f, ",
                      i == 0 ? "" : ",",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent), s.rep,
                      s.start, s.end, self[i]);
        out << buf << "\"layer\": " << jsonString(s.layer)
            << ", \"name\": " << jsonString(s.name) << "}";
    }
    out << "\n  ]\n}\n";

    std::ofstream file(path);
    file << out.str();
    if (!file.flush())
        throw std::runtime_error("cannot write span file " + path);
}

// ---------------------------------------------------------------
// Checker
// ---------------------------------------------------------------

Checker::Checker(std::string workload, const std::string &reference_path,
                 bool record)
    : workload_(std::move(workload)), record_(record)
{
    if (record_)
        return;
    std::ifstream in(reference_path);
    if (!in)
        throw std::runtime_error("cannot read reference file " +
                                 reference_path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t last = line.rfind('\t');
        if (last == std::string::npos)
            throw std::runtime_error("malformed reference line: " +
                                     line);
        reference_[line.substr(0, last)] = line.substr(last + 1);
    }
}

void
Checker::digest(const std::string &input, const std::string &artifact,
                const std::string &text)
{
    const std::string key = workload_ + "\t" + input + "\t" + artifact;
    const std::string got = digestOf(text);
    ++attempted_;
    if (record_) {
        std::printf("%s\t%s\n", key.c_str(), got.c_str());
        return;
    }
    const auto it = reference_.find(key);
    if (it == reference_.end()) {
        ++failed_;
        std::fprintf(stderr, "check FAILED: no reference for %s %s %s\n",
                     workload_.c_str(), input.c_str(), artifact.c_str());
    } else if (it->second != got) {
        ++failed_;
        std::fprintf(stderr,
                     "check FAILED: %s %s %s digest %s, reference %s\n",
                     workload_.c_str(), input.c_str(), artifact.c_str(),
                     got.c_str(), it->second.c_str());
    }
}

void
Checker::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "check FAILED: %s %s\n", workload_.c_str(),
                     what.c_str());
    }
}

} // namespace perfbench
