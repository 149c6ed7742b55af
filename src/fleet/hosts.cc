#include "fleet/hosts.hh"

#include <fstream>
#include <sstream>

#include "fleet/transport/faulty_transport.hh"
#include "fleet/transport/local_transport.hh"
#include "obs/json.hh"

namespace vip
{
namespace fleet
{

bool
parseHostsFile(const std::string &path, std::vector<HostSpec> *out,
               std::string *err)
{
    out->clear();
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open hosts file " + path;
        return false;
    }
    json::JsonValue doc;
    try {
        doc = json::parse(in);
    } catch (const std::exception &e) {
        if (err)
            *err = path + ": " + e.what();
        return false;
    }
    const json::JsonValue *hosts = doc.find("hosts");
    if (!hosts || hosts->kind != json::JsonValue::Kind::Array ||
        hosts->arr.empty()) {
        if (err)
            *err = path + ": expected a non-empty \"hosts\" array";
        return false;
    }

    for (std::size_t i = 0; i < hosts->arr.size(); ++i) {
        const json::JsonValue &h = hosts->arr[i];
        if (h.kind != json::JsonValue::Kind::Object) {
            if (err)
                *err = path + ": hosts[" + std::to_string(i) +
                       "] is not an object";
            return false;
        }
        HostSpec spec;
        spec.name = json::strField(h, "name");
        if (spec.name.empty())
            spec.name = "host" + std::to_string(i);
        const std::string kind = json::strField(h, "transport");
        if (!kind.empty())
            spec.transport = kind;
        if (spec.transport != "process" && spec.transport != "ssh") {
            if (err)
                *err = path + ": host " + spec.name +
                       ": unknown transport \"" + spec.transport +
                       "\" (use process | ssh)";
            return false;
        }
        const double slots = json::numField(h, "slots");
        if (slots > 0.0)
            spec.slots = static_cast<int>(slots);
        spec.faultSpec = json::strField(h, "fault");

        if (spec.transport == "ssh") {
            spec.remote.name = spec.name;
            const json::JsonValue *ssh = h.find("ssh");
            if (!ssh ||
                ssh->kind != json::JsonValue::Kind::Array ||
                ssh->arr.empty()) {
                if (err)
                    *err = path + ": host " + spec.name +
                           ": ssh transport needs a non-empty "
                           "\"ssh\" argv array";
                return false;
            }
            for (const auto &a : ssh->arr) {
                if (a.kind != json::JsonValue::Kind::String) {
                    if (err)
                        *err = path + ": host " + spec.name +
                               ": \"ssh\" entries must be strings";
                    return false;
                }
                spec.remote.sshCmd.push_back(a.str);
            }
            spec.remote.remoteDir = json::strField(h, "remote_dir");
            if (spec.remote.remoteDir.empty()) {
                if (err)
                    *err = path + ": host " + spec.name +
                           ": ssh transport needs \"remote_dir\"";
                return false;
            }
            spec.remote.vipSim = json::strField(h, "vip_sim");
            const double t = json::numField(h, "op_timeout_ms");
            if (t > 0.0)
                spec.remote.opTimeoutMs = t;
            const double r = json::numField(h, "op_retries");
            if (r > 0.0)
                spec.remote.opRetries = static_cast<int>(r);
        }
        out->push_back(std::move(spec));
    }

    for (std::size_t i = 0; i < out->size(); ++i)
        for (std::size_t j = i + 1; j < out->size(); ++j)
            if ((*out)[i].name == (*out)[j].name) {
                if (err)
                    *err = path + ": duplicate host name \"" +
                           (*out)[i].name + "\"";
                return false;
            }
    return true;
}

std::unique_ptr<WorkerTransport>
makeTransport(const HostSpec &host, const std::string &vipSimPath,
              const std::string &globalFaultSpec, std::string *err)
{
    std::unique_ptr<WorkerTransport> inner;
    if (host.transport == "process") {
        inner = std::make_unique<LocalTransport>(vipSimPath);
    } else if (host.transport == "ssh") {
        RemoteHostOptions opt = host.remote;
        if (opt.vipSim.empty())
            opt.vipSim = vipSimPath;
        inner = std::make_unique<RemoteTransport>(std::move(opt));
    } else {
        if (err)
            *err = "unknown transport \"" + host.transport +
                   "\" (use process | ssh)";
        return nullptr;
    }

    const std::string &fault =
        host.faultSpec.empty() ? globalFaultSpec : host.faultSpec;
    if (fault.empty())
        return inner;
    FaultSpec spec;
    if (!FaultSpec::parse(fault, &spec, err))
        return nullptr;
    return std::make_unique<FaultyTransport>(std::move(inner), spec);
}

} // namespace fleet
} // namespace vip
