#include "sim/snapshot.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "sim/logging.hh"

namespace vip
{

namespace
{

/** FNV-1a over a byte range (same constants as StateDigest). */
std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putStr(std::vector<std::uint8_t> &buf, const std::string &s)
{
    putU32(buf, static_cast<std::uint32_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
}

} // namespace

// --------------------------------------------------------------------
// SnapshotWriter
// --------------------------------------------------------------------

void
SnapshotWriter::u32(std::uint32_t v)
{
    putU32(_cur, v);
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    putU64(_cur, v);
}

void
SnapshotWriter::str(const std::string &s)
{
    putStr(_cur, s);
}

void
SnapshotWriter::beginSection(const std::string &name)
{
    flushSection();
    _curName = name;
}

void
SnapshotWriter::flushSection()
{
    if (!_curName.empty()) {
        _sections.emplace_back(std::move(_curName), std::move(_cur));
        _curName.clear();
        _cur.clear();
    } else {
        vip_assert(_cur.empty(),
                   "snapshot data written outside any section");
    }
}

void
SnapshotWriter::writeFile(const std::vector<std::string> &paths,
                          const SnapshotMeta &meta)
{
    flushSection();

    std::vector<std::uint8_t> out;
    putU32(out, kSnapshotMagic);
    putU32(out, meta.version);
    putStr(out, meta.gitHash);
    putStr(out, meta.compiler);
    putStr(out, meta.buildType);
    putStr(out, meta.configName);
    putStr(out, meta.workloadName);
    putU64(out, meta.seed);
    putU64(out, std::bit_cast<std::uint64_t>(meta.simSeconds));
    putStr(out, meta.faultPlan);
    putStr(out, meta.auditSpec);
    putStr(out, meta.extraIdentity);
    putU64(out, static_cast<std::uint64_t>(meta.tick));
    putU64(out, meta.stateDigest);

    putU32(out, static_cast<std::uint32_t>(_sections.size()));
    for (const auto &[name, payload] : _sections) {
        putStr(out, name);
        putU64(out, payload.size());
        out.insert(out.end(), payload.begin(), payload.end());
    }
    putU64(out, fnv1a(out.data(), out.size()));

    namespace fs = std::filesystem;
    for (const std::string &path : paths) {
        fs::path p(path);
        std::error_code ec;
        if (p.has_parent_path())
            fs::create_directories(p.parent_path(), ec);

        std::string tmp = path + ".tmp";
        {
            std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
            if (!os)
                fatal("cannot write snapshot '", tmp, "'");
            os.write(reinterpret_cast<const char *>(out.data()),
                     static_cast<std::streamsize>(out.size()));
            if (!os)
                fatal("short write on snapshot '", tmp, "'");
        }
        if (fs::exists(p, ec))
            fs::rename(p, path + ".prev", ec); // best effort
        fs::rename(tmp, p, ec);
        if (ec)
            fatal("cannot rename snapshot '", tmp, "' -> '", path,
                  "': ", ec.message());
    }
}

// --------------------------------------------------------------------
// SnapshotReader
// --------------------------------------------------------------------

void
SnapshotReader::need(std::size_t n, const char *what)
{
    std::size_t limit = _open ? _secEnd : _data.size();
    if (_pos + n > limit) {
        if (_open) {
            fatal("snapshot '", _path, "': section out of data "
                  "reading ", what, " (corrupt or version skew)");
        }
        fatal("snapshot '", _path, "' is truncated (reading ", what,
              ")");
    }
}

std::uint8_t
SnapshotReader::rawU8()
{
    need(1, "u8");
    return _data[_pos++];
}

std::uint32_t
SnapshotReader::rawU32()
{
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(_data[_pos++]) << (8 * i);
    return v;
}

std::uint64_t
SnapshotReader::rawU64()
{
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(_data[_pos++]) << (8 * i);
    return v;
}

std::string
SnapshotReader::rawStr()
{
    std::uint32_t n = rawU32();
    need(n, "string");
    std::string s(reinterpret_cast<const char *>(&_data[_pos]), n);
    _pos += n;
    return s;
}

std::uint8_t
SnapshotReader::u8()
{
    vip_assert(_open, "snapshot read outside a section");
    return rawU8();
}

std::uint32_t
SnapshotReader::u32()
{
    vip_assert(_open, "snapshot read outside a section");
    return rawU32();
}

std::uint64_t
SnapshotReader::u64()
{
    vip_assert(_open, "snapshot read outside a section");
    return rawU64();
}

std::string
SnapshotReader::str()
{
    vip_assert(_open, "snapshot read outside a section");
    return rawStr();
}

SnapshotReader::SnapshotReader(const std::string &path) : _path(path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open snapshot '", path, "'");
    _data.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());

    if (_data.size() < 16)
        fatal("snapshot '", path, "' is truncated (", _data.size(),
              " bytes)");
    // Validate the whole-file checksum before trusting any length
    // field inside.
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
        stored |= static_cast<std::uint64_t>(
                      _data[_data.size() - 8 + i]) << (8 * i);
    }
    std::uint64_t computed = fnv1a(_data.data(), _data.size() - 8);
    std::uint32_t magic = rawU32();
    if (magic != kSnapshotMagic)
        fatal("'", path, "' is not a VIP snapshot (bad magic)");
    _meta.version = rawU32();
    if (_meta.version != kSnapshotVersion) {
        fatal("snapshot '", path, "' has format version ",
              _meta.version, ", this build reads version ",
              kSnapshotVersion, " (version skew)");
    }
    if (stored != computed) {
        fatal("snapshot '", path,
              "' failed its checksum (truncated or corrupt)");
    }
    _meta.gitHash = rawStr();
    _meta.compiler = rawStr();
    _meta.buildType = rawStr();
    _meta.configName = rawStr();
    _meta.workloadName = rawStr();
    _meta.seed = rawU64();
    _meta.simSeconds = std::bit_cast<double>(rawU64());
    _meta.faultPlan = rawStr();
    _meta.auditSpec = rawStr();
    _meta.extraIdentity = rawStr();
    _meta.tick = static_cast<Tick>(rawU64());
    _meta.stateDigest = rawU64();

    std::uint32_t nsec = rawU32();
    _sectionTab.reserve(nsec);
    for (std::uint32_t i = 0; i < nsec; ++i) {
        Section s;
        s.name = rawStr();
        std::uint64_t size = rawU64();
        need(static_cast<std::size_t>(size), "section payload");
        s.off = _pos;
        s.size = static_cast<std::size_t>(size);
        _pos += s.size;
        _sectionTab.push_back(std::move(s));
    }
    // _pos now sits at the checksum; nothing else to parse.
}

void
SnapshotReader::openSection(const std::string &name)
{
    vip_assert(!_open, "snapshot section '", name,
               "' opened while another is open");
    if (_nextSection >= _sectionTab.size()) {
        fatal("snapshot '", _path, "': expected section '", name,
              "' but the file has no more sections (version skew)");
    }
    const Section &s = _sectionTab[_nextSection];
    if (s.name != name) {
        fatal("snapshot '", _path, "': expected section '", name,
              "', found '", s.name, "' (version skew)");
    }
    _pos = s.off;
    _secEnd = s.off + s.size;
    _open = true;
    ++_nextSection;
}

void
SnapshotReader::closeSection()
{
    vip_assert(_open, "closeSection without an open section");
    if (_pos != _secEnd) {
        fatal("snapshot '", _path, "': section '", sectionName(),
              "' has ", _secEnd - _pos, " unread bytes (version skew)");
    }
    _open = false;
}

const std::string &
SnapshotReader::sectionName() const
{
    vip_assert(_open, "sectionName without an open section");
    return _sectionTab[_nextSection - 1].name;
}

SnapshotMeta
SnapshotReader::readMeta(const std::string &path)
{
    SnapshotReader r(path);
    return r.meta();
}

} // namespace vip
