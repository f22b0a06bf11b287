#include "telemetry/trace.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/text_file.hh"
#include "telemetry/json_writer.hh"

namespace hnoc
{

Cycle
FlitTrace::PacketRecord::hopSum() const
{
    Cycle sum = 0;
    for (const HopRecord &h : hops)
        if (h.depart != CYCLE_NEVER)
            sum += h.depart - h.arrive;
    return sum;
}

Cycle
FlitTrace::PacketRecord::serialization() const
{
    Cycle n = network();
    Cycle h = hopSum();
    return n > h ? n - h : 0;
}

FlitTrace::FlitTrace(const FlightRecorder &recorder)
    : droppedEvents_(recorder.overwritten())
{
    std::unordered_map<std::uint32_t, PacketRecord> live;
    for (const FlightRecorder::Event &e : recorder.snapshot()) {
        auto kind = static_cast<FrKind>(e.kind);
        if (kind == FrKind::FlitIn || kind == FrKind::FlitOut)
            flits_.push_back(e);
        if (kind == FrKind::Inject) {
            PacketRecord &rec = live[e.pkt];
            rec.id = e.pkt;
            rec.src = e.router;
            rec.numFlits = e.seq;
            rec.created = e.t;
            continue;
        }
        auto it = live.find(e.pkt);
        if (it == live.end()) {
            if (kind == FrKind::Eject)
                ++droppedPackets_;
            continue;
        }
        PacketRecord &rec = it->second;
        if (kind == FrKind::Launch) {
            rec.injected = e.t;
        } else if (kind == FrKind::FlitIn && e.head) {
            HopRecord hop;
            hop.router = e.router;
            hop.inPort = e.port;
            hop.vc = e.vc;
            hop.arrive = e.t;
            rec.hops.push_back(hop);
        } else if (kind == FrKind::FlitOut && e.head) {
            // Close the newest open hop at this router (the head
            // visits each router once).
            for (auto h = rec.hops.rbegin(); h != rec.hops.rend(); ++h) {
                if (h->router == e.router && h->depart == CYCLE_NEVER) {
                    h->depart = e.t;
                    break;
                }
            }
        } else if (kind == FrKind::Eject) {
            rec.dst = e.router;
            rec.ejected = e.t;
            done_.push_back(std::move(rec));
            live.erase(it);
        }
    }
}

std::string
FlitTrace::chromeTraceJson() const
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("displayTimeUnit", "ms");
    w.key("otherData").beginObject();
    w.keyValue("tool", "hnoc");
    w.keyValue("time_unit", "1 trace us = 1 simulation cycle");
    w.keyValue("dropped_events", droppedEvents_);
    w.keyValue("dropped_packets", droppedPackets_);
    w.endObject();
    w.key("traceEvents").beginArray();

    // Process/thread naming metadata: pid 0 = the network, one thread
    // per router touched by a recorded hop.
    auto meta = [&](const char *name, int pid, int tid,
                    const std::string &value) {
        w.beginObject();
        w.keyValue("name", name);
        w.keyValue("ph", "M");
        w.keyValue("pid", pid);
        w.keyValue("tid", tid);
        w.key("args").beginObject();
        w.keyValue("name", value);
        w.endObject();
        w.endObject();
    };
    meta("process_name", 0, 0, "hnoc network");
    std::vector<RouterId> routers;
    for (const PacketRecord &p : done_)
        for (const HopRecord &h : p.hops)
            routers.push_back(h.router);
    std::sort(routers.begin(), routers.end());
    routers.erase(std::unique(routers.begin(), routers.end()),
                  routers.end());
    char buf[48];
    for (RouterId r : routers) {
        std::snprintf(buf, sizeof(buf), "router %d", r);
        meta("thread_name", 0, r, buf);
    }

    for (const PacketRecord &p : done_) {
        std::snprintf(buf, sizeof(buf), "pkt %llu",
                      static_cast<unsigned long long>(p.id));
        // Async begin at injection...
        w.beginObject();
        w.keyValue("name", buf);
        w.keyValue("cat", "packet");
        w.keyValue("ph", "b");
        w.keyValue("id", p.id);
        w.keyValue("ts", static_cast<std::uint64_t>(p.injected));
        w.keyValue("pid", 0);
        w.keyValue("tid", 0);
        w.key("args").beginObject();
        w.keyValue("src", p.src);
        w.keyValue("dst", p.dst);
        w.keyValue("flits", p.numFlits);
        w.endObject();
        w.endObject();
        // ...end at ejection, carrying the latency decomposition.
        w.beginObject();
        w.keyValue("name", buf);
        w.keyValue("cat", "packet");
        w.keyValue("ph", "e");
        w.keyValue("id", p.id);
        w.keyValue("ts", static_cast<std::uint64_t>(p.ejected));
        w.keyValue("pid", 0);
        w.keyValue("tid", 0);
        w.key("args").beginObject();
        w.keyValue("queueing_cycles",
                   static_cast<std::uint64_t>(p.queueing()));
        w.keyValue("network_cycles",
                   static_cast<std::uint64_t>(p.network()));
        w.keyValue("hop_cycles",
                   static_cast<std::uint64_t>(p.hopSum()));
        w.keyValue("serialization_cycles",
                   static_cast<std::uint64_t>(p.serialization()));
        w.keyValue("hops",
                   static_cast<std::uint64_t>(p.hops.size()));
        w.endObject();
        w.endObject();
        for (const HopRecord &h : p.hops) {
            if (h.depart == CYCLE_NEVER)
                continue;
            w.beginObject();
            w.keyValue("name", buf);
            w.keyValue("cat", "hop");
            w.keyValue("ph", "X");
            w.keyValue("ts", static_cast<std::uint64_t>(h.arrive));
            w.keyValue("dur", static_cast<std::uint64_t>(
                                  h.depart - h.arrive));
            w.keyValue("pid", 0);
            w.keyValue("tid", h.router);
            w.key("args").beginObject();
            w.keyValue("in_port", h.inPort);
            w.keyValue("vc", h.vc);
            w.endObject();
            w.endObject();
        }
    }

    w.endArray();
    w.endObject();
    return w.str();
}

std::string
FlitTrace::flitLogJsonl() const
{
    std::string out;
    out.reserve(flits_.size() * 64);
    char buf[160];
    for (const FlightRecorder::Event &e : flits_) {
        std::snprintf(buf, sizeof(buf),
                      "{\"t\":%llu,\"ev\":\"%s\",\"r\":%d,\"p\":%d,"
                      "\"vc\":%d,\"pkt\":%u,\"seq\":%u,\"head\":%u}\n",
                      static_cast<unsigned long long>(e.t),
                      static_cast<FrKind>(e.kind) == FrKind::FlitIn
                          ? "arr"
                          : "dep",
                      e.router, e.port, e.vc, e.pkt, e.seq, e.head);
        out += buf;
    }
    return out;
}

bool
FlitTrace::writeChromeTrace(const std::string &path) const
{
    return writeTextFile(path, chromeTraceJson());
}

bool
FlitTrace::writeFlitLog(const std::string &path) const
{
    return writeTextFile(path, flitLogJsonl());
}

} // namespace hnoc
