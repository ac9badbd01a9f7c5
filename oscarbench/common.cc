#include "common.hh"

#include <fstream>

#include "sim/json.hh"

namespace oscarbench
{

std::map<std::string, Tracer::Totals>
Tracer::totalsUnder(std::uint64_t root) const
{
    std::lock_guard<std::mutex> lock(mutex);
    // Ids are assigned in open order, so a parent's id is always below
    // its children's: one forward pass marks the whole subtree.
    std::vector<bool> inside(records.size() + 1, false);
    std::map<std::string, Totals> totals;
    for (const Record &rec : records) {
        inside[rec.id] = rec.id == root || (rec.parent != kRoot &&
                                            inside[rec.parent]);
        if (!inside[rec.id])
            continue;
        Totals &t = totals[rec.name];
        const double ns = static_cast<double>(rec.endNs - rec.startNs);
        t.ns += ns;
        t.durationsNs.push_back(ns);
    }
    return totals;
}

bool
Tracer::writeJsonl(const std::string &path,
                   const std::string &header_json) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << header_json << '\n';
    std::lock_guard<std::mutex> lock(mutex);
    for (const Record &rec : records) {
        oscar::JsonWriter w;
        w.beginObject();
        w.field("id", rec.id);
        w.field("parent", rec.parent);
        w.field("name", rec.name);
        w.field("start_ns", static_cast<std::uint64_t>(rec.startNs));
        w.field("end_ns", static_cast<std::uint64_t>(rec.endNs));
        w.field("work", rec.work);
        w.endObject();
        out << w.str() << '\n';
    }
    out.flush();
    return static_cast<bool>(out);
}

} // namespace oscarbench
