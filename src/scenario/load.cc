#include "scenario/load.h"

#include <cmath>

namespace autoscale::scenario {

namespace {

/**
 * The sweep owns identity: expansion-derived name and seed override
 * whatever [meta] carries (spec fields only; the Doc keeps the base
 * values, so canonical text stays shared).
 */
void
stampSweptIdentity(ScenarioSpec &spec, const std::string &name,
                   std::uint64_t seed)
{
    spec.name = name;
    spec.seed = seed;
    // Derived identity counts as file-set: a --seed flag fighting a
    // sweep-derived seed must surface as a conflict, not silently
    // fork the replay.
    spec.explicitKeys.insert("meta.name");
    spec.explicitKeys.insert("meta.seed");
    if (spec.faults.enabled()) {
        spec.faults.name = name;
    }
}

std::vector<LoadedScenario>
loadParsed(const Doc &doc, Diagnostics &diags)
{
    if (!diags.ok()) {
        return {};
    }
    const std::vector<Variant> variants = expandVariants(doc, diags);
    if (!diags.ok()) {
        return {};
    }
    const bool swept = doc.find("variant") != nullptr;
    std::vector<LoadedScenario> loaded;
    loaded.reserve(variants.size());
    for (const Variant &variant : variants) {
        LoadedScenario scenario;
        scenario.index = variant.index;
        scenario.assignments = variant.assignments;
        scenario.doc = variant.doc;
        scenario.swept = swept;
        scenario.spec = bindSpec(variant.doc, diags);
        if (swept) {
            stampSweptIdentity(scenario.spec, variant.name, variant.seed);
        }
        loaded.push_back(std::move(scenario));
    }
    return diags.ok() ? loaded : std::vector<LoadedScenario>{};
}

/** Equal settings; a one-item list restates its item (env.base). */
bool
sameValue(const Value &a, const Value &b)
{
    if (a.kind == Value::Kind::List && a.items.size() == 1) {
        return sameValue(a.items.front(), b);
    }
    if (b.kind == Value::Kind::List && b.items.size() == 1) {
        return sameValue(a, b.items.front());
    }
    return a.equals(b);
}

/** Whether @p value is exactly the integer @p seed. */
bool
isSeed(const Value &value, std::uint64_t seed)
{
    return value.kind == Value::Kind::Number && value.num >= 0.0
        && value.num <= 9007199254740992.0 // 2^53, meta.seed's range
        && value.num == std::floor(value.num)
        && static_cast<std::uint64_t>(value.num) == seed;
}

} // namespace

std::vector<LoadedScenario>
loadScenarioFile(const std::string &path, Diagnostics &diags)
{
    const Doc doc = parseScenarioFile(path, diags);
    return loadParsed(doc, diags);
}

std::vector<LoadedScenario>
loadScenarioText(const std::string &text, const std::string &file,
                 Diagnostics &diags)
{
    const Doc doc = parseScenarioText(text, file, diags);
    return loadParsed(doc, diags);
}

ScenarioSpec
bindWithFlags(const LoadedScenario *file,
              const std::vector<FlagSetting> &flags, Diagnostics &diags)
{
    Doc doc = file != nullptr ? file->doc : Doc{};
    // Flag entries get negative lines, which no file line uses, so
    // their diagnostics can be told apart after binding.
    for (std::size_t i = 0; i < flags.size(); ++i) {
        const FlagSetting &flag = flags[i];
        const Section *section = doc.find(flag.section);
        const Entry *entry =
            section != nullptr ? section->find(flag.key) : nullptr;
        bool inFile = entry != nullptr;
        bool same = !inFile || sameValue(entry->value, flag.value);
        std::string fileValue = inFile ? entry->value.render() : "";
        if (file != nullptr && flag.section == "meta" && flag.key == "seed") {
            // Seeds ride out of band (variants.h): compare against the
            // bound, possibly sweep-derived, seed.
            inFile = file->spec.isSet("meta.seed");
            same = isSeed(flag.value, file->spec.seed);
            fileValue = std::to_string(file->spec.seed);
        }
        if (inFile && !same) {
            diags.error(flag.flag, 0,
                        flag.value.render() + " conflicts with "
                            + flag.section + "." + flag.key + " = "
                            + fileValue + " from " + doc.file
                            + " (drop the flag or change the file)");
        } else if (!inFile) {
            doc.set(flag.section, flag.key, flag.value,
                    -1 - static_cast<int>(i));
        }
    }

    Diagnostics bound;
    ScenarioSpec spec = bindSpec(doc, bound);
    for (const Diag &diag : bound.diags()) {
        if (diag.line < 0) {
            diags.error(flags[static_cast<std::size_t>(-1 - diag.line)].flag,
                        0, diag.message);
            continue;
        }
        // The file bound clean alone, so a rule that now fails on one
        // of its lines crosses a flag: name the flags it mentions.
        std::string message = diag.message;
        for (const FlagSetting &flag : flags) {
            if (message.find(flag.section + "." + flag.key)
                != std::string::npos) {
                message += " (with " + flag.flag + ")";
            }
        }
        diags.error(diag.file, diag.line, message);
    }
    if (file != nullptr && file->swept) {
        stampSweptIdentity(spec, file->spec.name, file->spec.seed);
    }
    return spec;
}

} // namespace autoscale::scenario
