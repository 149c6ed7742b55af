#include "sim/audit.hh"

#include <bit>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/state_io.hh"

namespace vip
{

void
StateDigest::add(double v)
{
    // Normalize the two zero representations so -0.0 == 0.0 states
    // digest identically.
    if (v == 0.0)
        v = 0.0;
    add(std::bit_cast<std::uint64_t>(v));
}

void
StateDigest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s)
        addByte(static_cast<std::uint8_t>(c));
}

std::string
AuditViolation::format() const
{
    std::ostringstream os;
    os << "audit violation at tick " << tick << ": component "
       << component << " invariant " << invariant << ": lhs=" << lhs
       << " rhs=" << rhs;
    if (!detail.empty())
        os << " (" << detail << ")";
    return os.str();
}

void
AuditContext::fail(const char *id, std::uint64_t lhs,
                   std::uint64_t rhs, const std::string &detail)
{
    AuditViolation v;
    v.tick = _tick;
    v.component = _component;
    v.invariant = id;
    v.lhs = lhs;
    v.rhs = rhs;
    v.detail = detail;
    if (_strict)
        fatal(v.format());
    _sink.push_back(std::move(v));
}

const char *
auditModeName(AuditMode m)
{
    switch (m) {
      case AuditMode::Off: return "off";
      case AuditMode::Final: return "final";
      case AuditMode::Periodic: return "periodic";
      case AuditMode::Strict: return "strict";
    }
    return "?";
}

AuditConfig
AuditConfig::parse(const std::string &spec)
{
    AuditConfig cfg;
    if (spec == "off") {
        cfg.mode = AuditMode::Off;
    } else if (spec == "final") {
        cfg.mode = AuditMode::Final;
    } else if (spec == "strict") {
        cfg.mode = AuditMode::Strict;
    } else if (spec.rfind("periodic", 0) == 0) {
        cfg.mode = AuditMode::Periodic;
        if (spec.size() > 8) {
            if (spec[8] != ':')
                fatal("bad --audit spec '", spec,
                      "' (want periodic[:<ms>])");
            char *end = nullptr;
            double ms = std::strtod(spec.c_str() + 9, &end);
            if (end == spec.c_str() + 9 || *end != '\0' || ms <= 0.0)
                fatal("bad --audit period in '", spec, "'");
            cfg.periodMs = ms;
        }
    } else {
        fatal("bad --audit mode '", spec,
              "' (want off|final|periodic[:<ms>]|strict)");
    }
    return cfg;
}

void
Auditor::attach(std::string name, const Auditable *a)
{
    vip_assert(a != nullptr, "attaching null auditable '", name, "'");
    for (const auto &[n, p] : _components)
        vip_assert(n != name, "duplicate auditable name '", name, "'");
    _stream.components.push_back(name);
    _components.emplace_back(std::move(name), a);
}

void
Auditor::addCheck(std::string name,
                  std::function<void(AuditContext &)> fn)
{
    _checks.emplace_back(std::move(name), std::move(fn));
}

void
Auditor::runAudit(Tick now)
{
    ++_passes;
    for (std::uint32_t i = 0; i < _components.size(); ++i) {
        const auto &[name, comp] = _components[i];
        AuditContext ctx(name, now, _cfg.strict(), _violations);
        comp->auditInvariants(ctx);
        StateDigest d;
        comp->stateDigest(d);
        _stream.records.push_back(DigestRecord{now, i, d.value()});
    }
    for (const auto &[name, fn] : _checks) {
        AuditContext ctx(name, now, _cfg.strict(), _violations);
        fn(ctx);
    }
}

std::uint64_t
Auditor::snapshotDigest() const
{
    StateDigest d;
    for (const auto &[name, comp] : _components) {
        d.add(name);
        StateDigest c;
        comp->stateDigest(c);
        d.add(c.value());
    }
    return d.value();
}

std::uint64_t
Auditor::streamDigest() const
{
    StateDigest d;
    for (const auto &r : _stream.records) {
        d.add(static_cast<std::uint64_t>(r.tick));
        d.add(r.component);
        d.add(r.digest);
    }
    return d.value();
}

void
Auditor::writeDigestStream(std::ostream &os,
                           const std::vector<std::string> &meta) const
{
    os << "# vip-digest v" << kDigestSchemaVersion << "\n";
    os << "# schemaVersion=" << kDigestSchemaVersion << "\n";
    for (const auto &m : meta)
        os << "# " << m << "\n";
    char buf[64];
    for (const auto &r : _stream.records) {
        std::snprintf(buf, sizeof(buf), "%llu %s %016llx\n",
                      static_cast<unsigned long long>(r.tick),
                      _stream.componentName(r.component).c_str(),
                      static_cast<unsigned long long>(r.digest));
        os << buf;
    }
}

DigestStream
Auditor::loadDigestStream(std::istream &is)
{
    DigestStream s;
    std::string line;
    std::size_t lineno = 0;
    // component name -> index, preserving first-seen order
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        unsigned long long tick = 0, digest = 0;
        std::string comp, hex;
        if (!(ls >> tick >> comp >> hex))
            fatal("digest stream line ", lineno, " malformed: '",
                  line, "'");
        char *end = nullptr;
        digest = std::strtoull(hex.c_str(), &end, 16);
        if (end != hex.c_str() + hex.size())
            fatal("digest stream line ", lineno, " bad digest '",
                  hex, "'");
        std::uint32_t idx = 0;
        for (; idx < s.components.size(); ++idx) {
            if (s.components[idx] == comp)
                break;
        }
        if (idx == s.components.size())
            s.components.push_back(comp);
        s.records.push_back(DigestRecord{
            static_cast<Tick>(tick), idx,
            static_cast<std::uint64_t>(digest)});
    }
    return s;
}

DigestStream
Auditor::loadDigestFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open digest stream '", path, "'");
    return loadDigestStream(is);
}

void
Auditor::io(StateIO &io)
{
    io.u64(_passes);
    io.seq32(_violations, "audit violations", [&](AuditViolation &v) {
        io.tick(v.tick);
        io.str(v.component);
        io.str(v.invariant);
        io.u64(v.lhs);
        io.u64(v.rhs);
        io.str(v.detail);
    });
    io.shape("auditor", "components", _stream.components.size());
    for (const std::string &name : _stream.components)
        io.expect("auditor", "component", name);
    io.seq32(_stream.records, "digest records", [&](DigestRecord &rec) {
        io.tick(rec.tick);
        io.u32(rec.component);
        io.u64(rec.digest);
    });
}

Divergence
Auditor::firstDivergence(const DigestStream &a, const DigestStream &b)
{
    Divergence d;
    std::size_t n = std::min(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < n; ++i) {
        const DigestRecord &ra = a.records[i];
        const DigestRecord &rb = b.records[i];
        const std::string &ca = a.componentName(ra.component);
        const std::string &cb = b.componentName(rb.component);
        if (ra.tick != rb.tick || ca != cb ||
            ra.digest != rb.digest) {
            d.diverged = true;
            d.record = i;
            d.tick = ra.tick;
            d.component = ca != cb ? ca + "|" + cb : ca;
            d.digestA = ra.digest;
            d.digestB = rb.digest;
            return d;
        }
    }
    if (a.records.size() != b.records.size()) {
        d.diverged = true;
        d.truncated = true;
        d.record = n;
        const DigestStream &longer =
            a.records.size() > b.records.size() ? a : b;
        d.tick = longer.records[n].tick;
        d.component = longer.componentName(longer.records[n].component);
    }
    return d;
}

} // namespace vip
