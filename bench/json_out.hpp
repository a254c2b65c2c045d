#pragma once

// Machine-readable bench output: every experiment that prints tables can
// also persist them as BENCH_<name>.json + BENCH_<name>.csv in the
// working directory, so sweeps are scriptable without scraping the
// aligned-text rendering.  The JSON model is deliberately tiny -- just
// what a results file needs (objects, arrays, strings, numbers, bools)
// -- and lives here rather than in src/ because only benches speak it.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/offload.hpp"
#include "workload/report.hpp"

namespace bacp::bench {

/// An owned JSON value tree.
class Json {
public:
    Json() : value_(nullptr) {}

    static Json str(std::string s) { return Json(Value{std::move(s)}); }
    static Json num(double v) { return Json(Value{v}); }
    static Json num(std::uint64_t v) { return Json(Value{static_cast<std::int64_t>(v)}); }
    static Json num(std::int64_t v) { return Json(Value{v}); }
    static Json num(int v) { return Json(Value{static_cast<std::int64_t>(v)}); }
    static Json boolean(bool v) { return Json(Value{v}); }
    static Json array() { return Json(Value{Array{}}); }
    static Json object() { return Json(Value{Object{}}); }

    Json& push(Json v) {
        std::get<Array>(value_).push_back(std::move(v));
        return *this;
    }

    Json& set(std::string key, Json v) {
        std::get<Object>(value_).emplace_back(std::move(key), std::move(v));
        return *this;
    }

    std::string dump(int indent = 0) const {
        std::ostringstream os;
        write(os, indent, 0);
        return os.str();
    }

private:
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;
    using Value = std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
                               Array, Object>;

    explicit Json(Value v) : value_(std::move(v)) {}

    static void escape(std::ostream& os, const std::string& s) {
        os << '"';
        for (const char c : s) {
            switch (c) {
                case '"': os << "\\\""; break;
                case '\\': os << "\\\\"; break;
                case '\n': os << "\\n"; break;
                case '\t': os << "\\t"; break;
                case '\r': os << "\\r"; break;
                default:
                    if (static_cast<unsigned char>(c) < 0x20) {
                        char buf[8];
                        std::snprintf(buf, sizeof buf, "\\u%04x", c);
                        os << buf;
                    } else {
                        os << c;
                    }
            }
        }
        os << '"';
    }

    void write(std::ostream& os, int indent, int depth) const {
        const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
        const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
        const char* nl = indent > 0 ? "\n" : "";
        if (std::holds_alternative<std::nullptr_t>(value_)) {
            os << "null";
        } else if (const auto* b = std::get_if<bool>(&value_)) {
            os << (*b ? "true" : "false");
        } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
            os << *i;
        } else if (const auto* d = std::get_if<double>(&value_)) {
            std::ostringstream num;
            num.precision(12);
            num << *d;
            os << num.str();
        } else if (const auto* s = std::get_if<std::string>(&value_)) {
            escape(os, *s);
        } else if (const auto* arr = std::get_if<Array>(&value_)) {
            if (arr->empty()) {
                os << "[]";
                return;
            }
            os << '[' << nl;
            for (std::size_t k = 0; k < arr->size(); ++k) {
                os << pad;
                (*arr)[k].write(os, indent, depth + 1);
                if (k + 1 < arr->size()) os << ',';
                os << nl;
            }
            os << close_pad << ']';
        } else {
            const auto& obj = std::get<Object>(value_);
            if (obj.empty()) {
                os << "{}";
                return;
            }
            os << '{' << nl;
            for (std::size_t k = 0; k < obj.size(); ++k) {
                os << pad;
                escape(os, obj[k].first);
                os << (indent > 0 ? ": " : ":");
                obj[k].second.write(os, indent, depth + 1);
                if (k + 1 < obj.size()) os << ',';
                os << nl;
            }
            os << close_pad << '}';
        }
    }

    Value value_;
};

/// Serializes any counter struct exposing `fields()` (an iterable of
/// {name, value} records, e.g. net::Metrics) as a flat JSON object --
/// the one bridge between src-side counters and bench metadata, so a
/// new counter shows up in every results file without bench edits.
template <typename Counters>
Json counters_json(const Counters& counters) {
    Json obj = Json::object();
    for (const auto& field : counters.fields()) {
        obj.set(field.name, Json::num(static_cast<std::uint64_t>(field.value)));
    }
    return obj;
}

/// The checkout the bench runs from: the full SHA of the working
/// directory's HEAD, suffixed "-dirty" when the tree has uncommitted
/// changes, or "unknown" outside a git work tree.
inline std::string source_commit() {
    std::string out;
    const char* cmd = "git describe --always --dirty --abbrev=40 --exclude='*' 2>/dev/null";
    if (FILE* pipe = ::popen(cmd, "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
        ::pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
    return out.empty() ? "unknown" : out;
}

/// Where a results file came from: commit, compiler, kernel, CPU count,
/// and the kernel-offload tiers this kernel supports (each tier that
/// net::resolve_offload() keeps as requested) plus the one Auto picks.
/// The same provenance perfbench's driver notes.
inline Json provenance() {
    utsname u{};
    ::uname(&u);
    std::string tiers;
    for (const net::OffloadMode mode : {net::OffloadMode::Mmsg, net::OffloadMode::Gso}) {
        if (net::resolve_offload(mode) != mode) continue;
        if (!tiers.empty()) tiers += ',';
        tiers += net::offload_mode_name(mode);
    }
    return Json::object()
        .set("commit", Json::str(source_commit()))
        .set("compiler", Json::str(std::string("g++ ") + __VERSION__))
        .set("kernel", Json::str(std::string(u.sysname) + " " + u.release + " " + u.machine))
        .set("nproc", Json::num(static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN))))
        .set("offload_tiers", Json::str(tiers))
        .set("offload_auto", Json::str(net::offload_mode_name(
                                 net::resolve_offload(net::OffloadMode::Auto))));
}

/// Accumulates an experiment's tables and metadata, then writes
/// BENCH_<name>.json and BENCH_<name>.csv side by side.  CSV holds the
/// tables verbatim (sections separated by "# <title>" comment lines);
/// JSON carries the same cells plus the typed metadata, which always
/// opens with the provenance() stamp under "stamp".
class BenchOutput {
public:
    explicit BenchOutput(std::string name) : name_(std::move(name)) {
        meta_ = Json::object();
        meta_.set("stamp", provenance());
        tables_ = Json::array();
    }

    BenchOutput& meta(std::string key, Json value) {
        meta_.set(std::move(key), std::move(value));
        return *this;
    }

    BenchOutput& add_table(const std::string& title, const workload::Table& table) {
        Json rows = Json::array();
        for (const auto& row : table.cells()) {
            Json cells = Json::array();
            for (const auto& cell : row) cells.push(Json::str(cell));
            rows.push(std::move(cells));
        }
        Json headers = Json::array();
        for (const auto& h : table.headers()) headers.push(Json::str(h));
        tables_.push(Json::object()
                         .set("title", Json::str(title))
                         .set("headers", std::move(headers))
                         .set("rows", std::move(rows)));
        csv_ += "# " + title + "\n" + table.to_csv() + "\n";
        return *this;
    }

    /// Writes both files; returns false (after best effort) if either
    /// stream failed -- benches warn rather than abort on that.
    bool write() const {
        const Json doc = Json::object()
                             .set("bench", Json::str(name_))
                             .set("meta", meta_)
                             .set("tables", tables_);
        std::ofstream json_file("BENCH_" + name_ + ".json");
        json_file << doc.dump(2) << "\n";
        std::ofstream csv_file("BENCH_" + name_ + ".csv");
        csv_file << csv_;
        return json_file.good() && csv_file.good();
    }

private:
    std::string name_;
    Json meta_;
    Json tables_;
    std::string csv_;
};

}  // namespace bacp::bench
