/**
 * @file
 * One-call scenario loading: parse -> validate [variant] -> expand ->
 * bind each expanded Doc into a typed ScenarioSpec. This is the entry
 * point the CLI (`--scenario FILE`) and scenario_lint share, so a file
 * that lints clean is exactly a file the CLI will accept.
 *
 * bindWithFlags is the CLI's other half (DESIGN.md §16): a command
 * line is an inline scenario. Each flag that spells a schema key
 * becomes one entry of an overlay laid over the loaded file's Doc,
 * and the result is bound by the same bindSpec, so flags get exactly
 * the file's types, ranges and cross-field rules.
 */

#ifndef AUTOSCALE_SCENARIO_LOAD_H_
#define AUTOSCALE_SCENARIO_LOAD_H_

#include <string>
#include <vector>

#include "scenario/parser.h"
#include "scenario/spec.h"
#include "scenario/variants.h"

namespace autoscale::scenario {

/** One expanded, validated scenario from a file. */
struct LoadedScenario {
    /** Expansion index (0 for files without [variant]). */
    int index = 0;
    /** Axis assignments that produced this variant (empty: no sweep). */
    std::vector<std::pair<std::string, std::string>> assignments;
    /** The expanded Doc the spec was bound from ([variant] removed). */
    Doc doc;
    /** Whether the file sweeps, so the spec's name and seed are derived. */
    bool swept = false;
    /** The bound spec; name/seed already variant-derived. */
    ScenarioSpec spec;
};

/** One schema key set on the command line. */
struct FlagSetting {
    std::string flag;    ///< "--queue-depth"; labels its diagnostics.
    std::string section; ///< "qos"
    std::string key;     ///< "queue_depth"
    Value value;
};

/**
 * Load @p path end-to-end. All parse, variant, and binding errors
 * accumulate into @p diags; the result is meaningful only when
 * @p diags stays ok(), and is then non-empty (at least one variant).
 */
std::vector<LoadedScenario> loadScenarioFile(const std::string &path,
                                             Diagnostics &diags);

/** Same, over in-memory text (@p file labels diagnostics). */
std::vector<LoadedScenario> loadScenarioText(const std::string &text,
                                             const std::string &file,
                                             Diagnostics &diags);

/**
 * Bind @p flags laid over @p file (nullptr: the flags alone over the
 * schema defaults, with an empty sourceFile) with one bindSpec call.
 * A flag may restate a key the file sets with an equal value; a
 * different value is a conflict. `--seed` compares against the file's
 * bound, possibly sweep-derived, seed. Diagnostics on a flag's entry
 * carry the flag as their file and no line; the result is meaningful
 * only when @p diags stays ok().
 */
ScenarioSpec bindWithFlags(const LoadedScenario *file,
                           const std::vector<FlagSetting> &flags,
                           Diagnostics &diags);

} // namespace autoscale::scenario

#endif // AUTOSCALE_SCENARIO_LOAD_H_
