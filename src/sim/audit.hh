/**
 * @file
 * Runtime invariant auditing and deterministic state digests.
 *
 * Every auditable component implements two hooks: auditInvariants()
 * asserts conservation laws (frames, lane credits, SA bytes, DRAM
 * bursts, energy monotonicity) against an AuditContext, and
 * stateDigest() folds its architectural state into a rolling FNV-1a
 * digest.  The Auditor visits all registered components from a
 * periodic Audit event, appending (tick, component, digest) records
 * to an in-memory stream.  Two same-seed runs must produce identical
 * streams; the first divergent record localizes a nondeterminism or
 * regression to a tick and a component (see tools/vip_diverge.cc).
 *
 * Modes (--audit=off|final|periodic:<ms>|strict):
 *  - off:      no auditing at all (zero overhead).
 *  - final:    one audit pass after the run completes.
 *  - periodic: audit every period plus a final pass; violations are
 *              collected and reported, the run continues.
 *  - strict:   periodic, but the first violation aborts the run with
 *              a SimFatal naming component, invariant id and values.
 */

#ifndef VIP_SIM_AUDIT_HH
#define VIP_SIM_AUDIT_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace vip
{

class StateIO;

/** Rolling FNV-1a (64-bit) over typed state words. */
class StateDigest
{
  public:
    /** Fold @p byte into the digest. */
    void
    addByte(std::uint8_t byte)
    {
        _h = (_h ^ byte) * 0x100000001b3ull;
    }

    /** Fold a 64-bit word (little-endian byte order). */
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            addByte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(std::uint32_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(std::int32_t v) { add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(v))); }
    void add(bool v) { addByte(v ? 1 : 0); }

    /** Fold a double via its IEEE-754 bit pattern. */
    void add(double v);

    /** Fold a string (length-prefixed so concatenations differ). */
    void add(const std::string &s);

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull; // FNV-1a offset basis
};

class AuditContext;

/**
 * Interface of an auditable component.  SimObject derives from this,
 * so every platform component gets the hooks; non-SimObject helpers
 * (ChainManager, FlowRuntime, CpuCluster, FaultInjector, EventQueue)
 * implement it directly and are attached under an explicit name.
 */
class Auditable
{
  public:
    virtual ~Auditable() = default;

    /** Assert local/cross-component invariants against @p ctx. */
    virtual void auditInvariants(AuditContext &ctx) const
    {
        (void)ctx;
    }

    /** Fold architectural state into @p d (must be deterministic). */
    virtual void stateDigest(StateDigest &d) const { (void)d; }
};

/** One failed invariant check. */
struct AuditViolation
{
    Tick tick = 0;
    std::string component;
    std::string invariant;   ///< stable id, e.g. "flow.conservation"
    std::uint64_t lhs = 0;
    std::uint64_t rhs = 0;
    std::string detail;

    /** "audit violation at tick T: comp invariant lhs=..rhs=..". */
    std::string format() const;
};

/**
 * Handed to auditInvariants(); accumulates violations (and under
 * strict mode turns the first one into a SimFatal).
 */
class AuditContext
{
  public:
    AuditContext(std::string component, Tick tick, bool strict,
                 std::vector<AuditViolation> &sink)
        : _component(std::move(component)), _tick(tick),
          _strict(strict), _sink(sink)
    {}

    const std::string &component() const { return _component; }
    Tick tick() const { return _tick; }

    /** Invariant @p id requires lhs == rhs. */
    void
    checkEq(const char *id, std::uint64_t lhs, std::uint64_t rhs,
            const std::string &detail = std::string())
    {
        if (lhs != rhs)
            fail(id, lhs, rhs, detail);
    }

    /** Invariant @p id requires lhs <= rhs. */
    void
    checkLe(const char *id, std::uint64_t lhs, std::uint64_t rhs,
            const std::string &detail = std::string())
    {
        if (lhs > rhs)
            fail(id, lhs, rhs, detail);
    }

    /** Invariant @p id requires @p ok. */
    void
    checkTrue(const char *id, bool ok,
              const std::string &detail = std::string())
    {
        if (!ok)
            fail(id, 0, 1, detail);
    }

  private:
    void fail(const char *id, std::uint64_t lhs, std::uint64_t rhs,
              const std::string &detail);

    std::string _component;
    Tick _tick;
    bool _strict;
    std::vector<AuditViolation> &_sink;
};

/** Audit activation mode. */
enum class AuditMode : std::uint8_t
{
    Off,      ///< no auditing
    Final,    ///< one pass at end of run
    Periodic, ///< every period + final; violations reported, not fatal
    Strict,   ///< periodic, first violation is a SimFatal
};

const char *auditModeName(AuditMode m);

/** Parsed --audit configuration. */
struct AuditConfig
{
    AuditMode mode = AuditMode::Off;
    /** Audit period for Periodic/Strict, milliseconds. */
    double periodMs = 1.0;

    bool enabled() const { return mode != AuditMode::Off; }
    bool periodic() const
    {
        return mode == AuditMode::Periodic || mode == AuditMode::Strict;
    }
    bool strict() const { return mode == AuditMode::Strict; }

    /** Parse "off|final|periodic[:<ms>]|strict" (fatal on junk). */
    static AuditConfig parse(const std::string &spec);
};

/** One digest record: a component's state digest at one audit tick. */
struct DigestRecord
{
    Tick tick = 0;
    std::uint32_t component = 0; ///< index into component names
    std::uint64_t digest = 0;
};

/** A loaded/recorded digest stream (see writeDigestStream()). */
struct DigestStream
{
    std::vector<std::string> components;
    std::vector<DigestRecord> records;

    const std::string &
    componentName(std::uint32_t idx) const
    {
        static const std::string unknown = "?";
        return idx < components.size() ? components[idx] : unknown;
    }
};

/** Where two digest streams first disagree. */
struct Divergence
{
    bool diverged = false;
    /** True when one stream is a strict prefix of the other. */
    bool truncated = false;
    Tick tick = 0;
    std::string component;
    std::uint64_t digestA = 0;
    std::uint64_t digestB = 0;
    std::size_t record = 0; ///< index of the first differing record
};

/**
 * Runs all registered auditors and records the digest stream.
 * Owned by Simulation; components are attached in build order, which
 * fixes the component indices of the stream deterministically.
 */
class Auditor
{
  public:
    explicit Auditor(AuditConfig cfg = {}) : _cfg(cfg) {}

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    const AuditConfig &config() const { return _cfg; }

    /** Register @p a under @p name (audit order = attach order). */
    void attach(std::string name, const Auditable *a);

    /**
     * Register a cross-component check that is not tied to a single
     * Auditable (e.g. energy-ledger monotonicity).  Checks run after
     * the per-component passes; they contribute no digest.
     */
    void addCheck(std::string name,
                  std::function<void(AuditContext &)> fn);

    /**
     * Run one audit pass at @p now: every component's invariants and
     * digest, then the global checks.  Under strict the first
     * violation raises SimFatal.
     */
    void runAudit(Tick now);

    std::uint64_t auditPasses() const { return _passes; }
    const std::vector<AuditViolation> &violations() const
    {
        return _violations;
    }

    const DigestStream &stream() const { return _stream; }

    /** Digest of the whole record stream (quick equality check). */
    std::uint64_t streamDigest() const;

    /**
     * Fold every attached component's current state digest into one
     * value, without recording a stream entry or running invariant
     * checks.  Used by the flight recorder to stamp crash bundles
     * with the platform's state at the moment of death — works even
     * under --audit=off.
     */
    std::uint64_t snapshotDigest() const;

    /**
     * Write the stream as text: '#'-comment header (schema, optional
     * user metadata lines), then one "tick component hex-digest" line
     * per record.
     */
    void writeDigestStream(std::ostream &os,
                           const std::vector<std::string> &meta = {}) const;

    /** Parse a stream written by writeDigestStream() (fatal on junk). */
    static DigestStream loadDigestStream(std::istream &is);
    static DigestStream loadDigestFile(const std::string &path);

    /** First record where @p a and @p b disagree. */
    static Divergence firstDivergence(const DigestStream &a,
                                      const DigestStream &b);

    /**
     * Checkpoint/restore (driven by the Simulation).  The recorded
     * digest stream and violation list are part of the run's output,
     * so a restored run must carry the prefix recorded before the
     * checkpoint; components must already be re-attached (in build
     * order) on load — a name mismatch is a config skew.
     */
    void io(StateIO &io);

  private:
    AuditConfig _cfg;
    std::vector<std::pair<std::string, const Auditable *>> _components;
    std::vector<std::pair<std::string,
                          std::function<void(AuditContext &)>>> _checks;
    std::vector<AuditViolation> _violations;
    DigestStream _stream;
    std::uint64_t _passes = 0;
};

/** Digest-stream text format version (see writeDigestStream()). */
constexpr int kDigestSchemaVersion = 1;

} // namespace vip

#endif // VIP_SIM_AUDIT_HH
