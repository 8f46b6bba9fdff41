#include "scenario/variants.h"

#include <algorithm>
#include <cmath>

#include "harness/parallel.h"

namespace autoscale::scenario {

namespace {

/** Hard cap on one file's expansion, to catch runaway sweeps. */
constexpr std::int64_t kMaxVariants = 4096;

/** Singleton sections a variant axis may target. */
const char *const kAxisSections[] = {
    "meta",  "device", "workload", "env",  "arrival",
    "qos",   "retry",  "fault",    "fleet", "infra",
};

bool
isAxisSection(const std::string &name)
{
    for (const char *section : kAxisSections) {
        if (name == section) {
            return true;
        }
    }
    return false;
}

struct Axis {
    std::string path;    ///< Dotted form, e.g. "arrival.rate_x".
    std::string section; ///< Target section name.
    std::string key;     ///< Key inside the section.
    std::vector<Value> values;
    int line = 0;
};

/** Base name/seed read leniently; bindSpec reports type errors. */
void
readBaseMeta(const Doc &doc, std::string *name, std::uint64_t *seed)
{
    const Section *meta = doc.find("meta");
    if (meta == nullptr) {
        return;
    }
    const Entry *nameEntry = meta->find("name");
    if (nameEntry != nullptr && nameEntry->value.kind == Value::Kind::String
        && !nameEntry->value.str.empty()) {
        *name = nameEntry->value.str;
    }
    const Entry *seedEntry = meta->find("seed");
    if (seedEntry != nullptr
        && seedEntry->value.kind == Value::Kind::Number
        && std::isfinite(seedEntry->value.num)
        && seedEntry->value.num >= 0.0
        && seedEntry->value.num == std::floor(seedEntry->value.num)) {
        *seed = static_cast<std::uint64_t>(seedEntry->value.num);
    }
}

} // namespace

std::vector<Variant>
expandVariants(const Doc &doc, Diagnostics &diags)
{
    std::string baseName = "scenario";
    std::uint64_t baseSeed = 1;
    readBaseMeta(doc, &baseName, &baseSeed);

    const Section *variant = doc.find("variant");
    if (variant == nullptr) {
        Variant only;
        only.doc = doc;
        only.index = 0;
        only.name = baseName;
        only.seed = baseSeed;
        return {only};
    }

    // Bind the [variant] section: axes in file order, plus replicates.
    bool ok = true;
    std::int64_t replicates = 1;
    std::vector<Axis> axes;
    for (const Entry &entry : variant->entries) {
        if (entry.key == "replicates") {
            if (entry.value.kind != Value::Kind::Number
                || !std::isfinite(entry.value.num)
                || entry.value.num != std::floor(entry.value.num)
                || entry.value.num < 1.0 || entry.value.num > 10000.0) {
                diags.error(doc.file, entry.line,
                            "variant.replicates must be an integer in "
                            "[1, 10000]");
                ok = false;
            } else {
                replicates = static_cast<std::int64_t>(entry.value.num);
            }
            continue;
        }
        Axis axis;
        axis.path = entry.key;
        axis.line = entry.line;
        const std::size_t dot = entry.key.rfind('.');
        if (dot == std::string::npos || dot == 0
            || dot + 1 == entry.key.size()) {
            diags.error(doc.file, entry.line,
                        "variant axis '" + entry.key
                            + "' must be a dotted section.key path");
            ok = false;
            continue;
        }
        axis.section = entry.key.substr(0, dot);
        axis.key = entry.key.substr(dot + 1);
        if (!isAxisSection(axis.section)) {
            diags.error(doc.file, entry.line,
                        "variant axis '" + entry.key + "' targets ["
                            + axis.section
                            + "], which is not a sweepable singleton "
                              "section");
            ok = false;
            continue;
        }
        if (axis.path == "meta.name" || axis.path == "meta.seed") {
            diags.error(doc.file, entry.line,
                        "variant axis '" + axis.path
                            + "' is derived per variant and cannot be "
                              "swept");
            ok = false;
            continue;
        }
        if (entry.value.kind != Value::Kind::List) {
            diags.error(doc.file, entry.line,
                        "variant axis '" + axis.path
                            + "' must be a list of values to sweep");
            ok = false;
            continue;
        }
        if (entry.value.items.empty()) {
            diags.error(doc.file, entry.line,
                        "variant axis '" + axis.path
                            + "' must list at least one value");
            ok = false;
            continue;
        }
        for (const Value &item : entry.value.items) {
            if (item.kind == Value::Kind::List) {
                diags.error(doc.file, entry.line,
                            "variant axis '" + axis.path
                                + "' cannot nest lists");
                ok = false;
                break;
            }
        }
        // One axis per path: a repeat would silently shadow.
        for (const Axis &earlier : axes) {
            if (earlier.path == axis.path) {
                diags.error(doc.file, entry.line,
                            "duplicate variant axis '" + axis.path
                                + "' (first at line "
                                + std::to_string(earlier.line) + ")");
                ok = false;
                break;
            }
        }
        axis.values = entry.value.items;
        axes.push_back(std::move(axis));
    }
    if (!ok) {
        return {};
    }

    std::int64_t total = replicates;
    for (const Axis &axis : axes) {
        total *= static_cast<std::int64_t>(axis.values.size());
        if (total > kMaxVariants) {
            diags.error(doc.file, variant->line,
                        "[variant] expands to more than "
                            + std::to_string(kMaxVariants)
                            + " scenarios; shrink the sweep");
            return {};
        }
    }

    // Base doc for every variant: the file minus its [variant] section.
    Doc base = doc;
    base.sections.erase(
        std::remove_if(base.sections.begin(), base.sections.end(),
                       [](const Section &section) {
                           return section.name == "variant";
                       }),
        base.sections.end());

    std::vector<Variant> expanded;
    expanded.reserve(static_cast<std::size_t>(total));
    for (std::int64_t i = 0; i < total; ++i) {
        Variant out;
        out.index = static_cast<int>(i);
        out.name = baseName + "#" + std::to_string(i);
        out.seed = harness::replicateSeed(baseSeed,
                                          static_cast<std::uint64_t>(i));
        out.doc = base;
        // Decode: replicate index innermost, first axis outermost.
        std::int64_t rest = i / replicates;
        for (std::size_t a = axes.size(); a-- > 0;) {
            const Axis &axis = axes[a];
            const std::size_t pick = static_cast<std::size_t>(
                rest % static_cast<std::int64_t>(axis.values.size()));
            rest /= static_cast<std::int64_t>(axis.values.size());
            out.doc.set(axis.section, axis.key, axis.values[pick],
                        axis.line);
            out.assignments.emplace_back(axis.path,
                                         axis.values[pick].render());
        }
        // File order for display, not decode order.
        std::reverse(out.assignments.begin(), out.assignments.end());
        expanded.push_back(std::move(out));
    }
    return expanded;
}

} // namespace autoscale::scenario
