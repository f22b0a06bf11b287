#include "telemetry/flight_recorder.hh"

#include <algorithm>

#include "telemetry/json_writer.hh"

namespace hnoc
{

const char *
frKindName(FrKind k)
{
    switch (k) {
      case FrKind::FlitIn: return "flit_in";
      case FrKind::FlitOut: return "flit_out";
      case FrKind::VaGrant: return "va_grant";
      case FrKind::VaDeny: return "va_deny";
      case FrKind::CreditStall: return "credit_stall";
      case FrKind::CreditIn: return "credit_in";
      case FrKind::CreditOut: return "credit_out";
      case FrKind::Inject: return "inject";
      case FrKind::Launch: return "launch";
      case FrKind::Eject: return "eject";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
{
    std::size_t cap = 1;
    while (cap < capacity)
        cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
}

std::size_t
FlightRecorder::size() const
{
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(next_, ring_.size()));
}

std::uint64_t
FlightRecorder::overwritten() const
{
    return next_ - size();
}

void
FlightRecorder::clear()
{
    next_ = 0;
}

std::vector<FlightRecorder::Event>
FlightRecorder::snapshot(Cycle last_cycles) const
{
    std::vector<Event> out;
    std::size_t held = size();
    if (held == 0)
        return out;
    out.reserve(held);
    std::uint64_t first = next_ - held;
    for (std::uint64_t i = first; i < next_; ++i)
        out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
    if (last_cycles > 0) {
        Cycle newest = out.back().t;
        Cycle cutoff = newest > last_cycles ? newest - last_cycles : 0;
        out.erase(std::remove_if(out.begin(), out.end(),
                                 [cutoff](const Event &e) {
                                     return e.t < cutoff;
                                 }),
                  out.end());
    }
    return out;
}

void
FlightRecorder::writeJson(JsonWriter &w, Cycle last_cycles) const
{
    std::vector<Event> events = snapshot(last_cycles);
    w.beginObject();
    w.keyValue("capacity", static_cast<std::uint64_t>(capacity()));
    w.keyValue("recorded", totalRecorded());
    w.keyValue("overwritten", overwritten());
    w.keyValue("held", static_cast<std::uint64_t>(events.size()));
    w.key("events").beginArray();
    for (const Event &e : events) {
        w.beginObject();
        w.keyValue("t", static_cast<std::uint64_t>(e.t));
        w.keyValue("ev", frKindName(static_cast<FrKind>(e.kind)));
        w.keyValue("r", static_cast<int>(e.router));
        w.keyValue("p", static_cast<int>(e.port));
        w.keyValue("vc", static_cast<int>(e.vc));
        if (e.pkt != 0)
            w.keyValue("pkt", static_cast<std::uint64_t>(e.pkt));
        if (e.head)
            w.keyValue("head", 1);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace hnoc
