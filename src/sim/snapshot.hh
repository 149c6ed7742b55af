/**
 * @file
 * Versioned, provenance-stamped binary snapshots (checkpoint/restore).
 *
 * A snapshot captures the complete architectural state of a simulation
 * at a *quiescent point*: a tick at which every in-flight activity has
 * drained back into component-owned state (no frames in the pipeline,
 * no DMA or link transfers in flight, no CPU task running), so the only
 * pending events are the re-armable periodic ones each component knows
 * how to recreate.  At such a point the full platform state is the
 * union of every component's named fields plus the kernel's event-id
 * bookkeeping — all of it plain data, so a restored run replays the
 * exact event sequence and reproduces bit-identical digest streams and
 * stats.
 *
 * File layout (little-endian, length-prefixed):
 *
 *   u32 magic ("VIPS")      u32 formatVersion
 *   meta block              (provenance + run identity + tick + digest)
 *   u32 sectionCount
 *   per section: string name, u64 payloadBytes, payload
 *   u64 fileChecksum        (FNV-1a over everything before it)
 *
 * Every mismatch — magic, version, provenance, run identity, section
 * name or size, truncation, digest — is a clear SimFatal, never UB.
 *
 * Deliberately NOT serialized: the tracer ring (observational,
 * lossy by design) and stat-registry getters (closures over
 * component fields; they read restored state, which is also how the
 * sampler's getters resume).
 */

#ifndef VIP_SIM_SNAPSHOT_HH
#define VIP_SIM_SNAPSHOT_HH

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace vip
{

constexpr std::uint32_t kSnapshotMagic = 0x53504956; // "VIPS"
constexpr std::uint32_t kSnapshotVersion = 5;

/**
 * Snapshot header: build provenance plus the identity of the run the
 * snapshot belongs to.  Restoring under a different build or run
 * configuration is rejected up front — resumed state would silently
 * diverge otherwise.
 */
struct SnapshotMeta
{
    std::uint32_t version = kSnapshotVersion;
    /** @{ Build provenance (obs/provenance.hh). */
    std::string gitHash;
    std::string compiler;
    std::string buildType;
    /** @} */
    /** @{ Run identity. */
    std::string configName;
    std::string workloadName;
    std::uint64_t seed = 0;
    double simSeconds = 0.0;
    std::string faultPlan;   ///< FaultPlan::describe(), or empty
    std::string auditSpec;   ///< audit mode (+ period when periodic)
    std::string extraIdentity; ///< other behavior-relevant knobs
    /** @} */
    Tick tick = 0;             ///< quiescent tick the state was captured at
    std::uint64_t stateDigest = 0; ///< Auditor::snapshotDigest() at tick
};

/** Buffered snapshot builder; write primitives + named sections. */
class SnapshotWriter
{
  public:
    SnapshotWriter() = default;

    /** @{ Primitives. */
    void u8(std::uint8_t v) { _cur.push_back(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void tick(Tick v) { u64(static_cast<std::uint64_t>(v)); }
    /** Doubles are stored by bit pattern: restores are bit-exact. */
    void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string &s);
    /** @} */

    /** Open a named section; every write lands in it until the next
     *  beginSection().  Names are checked on load, in order. */
    void beginSection(const std::string &name);

    /** Number of sections opened so far. */
    std::size_t sections() const { return _sections.size(); }

    /**
     * Encode the snapshot once and write the same bytes to each of
     * @p paths, atomically (tmp + rename).  When a path already
     * exists, its previous snapshot is kept as "<path>.prev" (a
     * 2-deep ring for crash resumability).
     */
    void writeFile(const std::vector<std::string> &paths,
                   const SnapshotMeta &meta);

  private:
    void flushSection();

    std::string _curName;
    std::vector<std::uint8_t> _cur;
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        _sections;
};

/** Bounds-checked reader over a loaded snapshot file. */
class SnapshotReader
{
  public:
    /** Load and validate @p path (magic, version, checksum). */
    explicit SnapshotReader(const std::string &path);

    const SnapshotMeta &meta() const { return _meta; }

    /**
     * Open the next section, which must be named @p name (the save and
     * load orders are the same fixed sequence by construction).
     */
    void openSection(const std::string &name);

    /** Close the current section; trailing unread bytes are fatal. */
    void closeSection();

    /** @{ The open section: its name and the bytes not yet read. */
    const std::string &sectionName() const;
    std::size_t sectionBytesLeft() const { return _secEnd - _pos; }
    /** @} */

    const std::string &path() const { return _path; }

    /** @{ Primitives (SimFatal past the end of the section). */
    std::uint8_t u8();
    bool b() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    Tick tick() { return static_cast<Tick>(u64()); }
    double d() { return std::bit_cast<double>(u64()); }
    std::string str();
    /** @} */

    /**
     * Read only the header of @p path — cheap introspection for tools
     * (vip_trace --summary, vip_diverge --bisect) that need the
     * checkpoint tick and identity without loading component state.
     */
    static SnapshotMeta readMeta(const std::string &path);

  private:
    std::uint8_t rawU8();
    std::uint32_t rawU32();
    std::uint64_t rawU64();
    std::string rawStr();
    void need(std::size_t n, const char *what);

    std::string _path;
    std::vector<std::uint8_t> _data;
    std::size_t _pos = 0;
    SnapshotMeta _meta;
    /** Remaining sections as (name, payload offset, payload size). */
    struct Section
    {
        std::string name;
        std::size_t off;
        std::size_t size;
    };
    std::vector<Section> _sectionTab;
    std::size_t _nextSection = 0;
    std::size_t _secEnd = 0; ///< end offset of the open section
    bool _open = false;
};

} // namespace vip

#endif // VIP_SIM_SNAPSHOT_HH
