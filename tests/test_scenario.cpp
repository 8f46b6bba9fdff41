/**
 * @file
 * Scenario subsystem tests (DESIGN.md §16): parser units, validator
 * diagnostics, the parse -> canonicalize -> reparse fixed point over
 * the whole scenarios/ library, [variant] expansion with
 * replicateSeed-derived seeds, field-by-field equivalence between the
 * library's preset scenarios and FaultPlan::fromName, the
 * malformed-input corpus (tests/scenario_corpus *.bad files, each pinning an
 * expected-error substring), a seeded mutation fuzzer asserting
 * the loader never crashes and every diagnostic carries file:line, and
 * the command-line overlay: flags that spell scenario keys bind
 * through the same validator as the file, checked against the real
 * autoscale_cli.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "harness/parallel.h"
#include "scenario/load.h"
#include "scenario/parser.h"
#include "scenario/spec.h"
#include "scenario/variants.h"
#include "util/rng.h"

#ifndef AUTOSCALE_SCENARIOS_DIR
#error "build must define AUTOSCALE_SCENARIOS_DIR"
#endif
#ifndef AUTOSCALE_SCENARIO_CORPUS_DIR
#error "build must define AUTOSCALE_SCENARIO_CORPUS_DIR"
#endif
#ifndef AUTOSCALE_CLI
#error "build must define AUTOSCALE_CLI"
#endif

namespace autoscale {
namespace {

namespace fs = std::filesystem;
using scenario::Diagnostics;
using scenario::Doc;
using scenario::LoadedScenario;
using scenario::ScenarioSpec;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "unreadable: " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Sorted *.ext files under @p dir; the suite fails if none exist. */
std::vector<fs::path>
filesWithExtension(const std::string &dir, const std::string &ext)
{
    std::vector<fs::path> paths;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ext) {
            paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    EXPECT_FALSE(paths.empty()) << "no " << ext << " files in " << dir;
    return paths;
}

// ---------------------------------------------------------------------------
// Parser units.

TEST(ScenarioParser, ParsesEveryValueKind)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "# leading comment\n"
        "[meta]\n"
        "name = \"quoted \\\"x\\\"\\n\\t\\\\\"  # trailing comment\n"
        "seed = 42\n"
        "[env]\n"
        "base = [\"S1\", \"D3\"]\n"
        "[fault.blackout]\n"
        "wlan = true\n"
        "p2p = false\n",
        "mem.scn", diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    ASSERT_EQ(doc.sections.size(), 3u);

    const scenario::Entry *name = doc.find("meta")->find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->value.kind, scenario::Value::Kind::String);
    EXPECT_EQ(name->value.str, "quoted \"x\"\n\t\\");
    EXPECT_EQ(name->line, 3);

    const scenario::Entry *seed = doc.find("meta")->find("seed");
    ASSERT_NE(seed, nullptr);
    EXPECT_EQ(seed->value.kind, scenario::Value::Kind::Number);
    EXPECT_DOUBLE_EQ(seed->value.num, 42.0);

    const scenario::Entry *base = doc.find("env")->find("base");
    ASSERT_NE(base, nullptr);
    ASSERT_EQ(base->value.kind, scenario::Value::Kind::List);
    ASSERT_EQ(base->value.items.size(), 2u);
    EXPECT_EQ(base->value.items[1].str, "D3");

    const scenario::Section *blackout = doc.find("fault.blackout");
    ASSERT_NE(blackout, nullptr);
    EXPECT_TRUE(blackout->find("wlan")->value.boolean);
    EXPECT_FALSE(blackout->find("p2p")->value.boolean);
}

TEST(ScenarioParser, MalformedLinesAreSkippedNotFatal)
{
    // The parser recovers per line: every bad line is one diagnostic
    // with the right line number, and every good line still lands.
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\n"
        "name = \"ok\"\n"
        "this is not a key value line\n"
        "seed = 7\n"
        "desc = \"unterminated\n",
        "mem.scn", diags);
    ASSERT_EQ(diags.diags().size(), 2u);
    EXPECT_EQ(diags.diags()[0].file, "mem.scn");
    EXPECT_EQ(diags.diags()[0].line, 3);
    EXPECT_NE(diags.diags()[0].message.find("expected 'key = value'"),
              std::string::npos);
    EXPECT_EQ(diags.diags()[1].line, 5);
    EXPECT_NE(diags.diags()[1].message.find("unterminated string"),
              std::string::npos);

    ASSERT_EQ(doc.sections.size(), 1u);
    EXPECT_NE(doc.find("meta")->find("name"), nullptr);
    EXPECT_NE(doc.find("meta")->find("seed"), nullptr);
    EXPECT_EQ(doc.find("meta")->find("desc"), nullptr);
}

TEST(ScenarioParser, KeyOutsideSectionIsReported)
{
    Diagnostics diags;
    scenario::parseScenarioText("name = \"top\"\n", "mem.scn", diags);
    ASSERT_EQ(diags.diags().size(), 1u);
    EXPECT_EQ(diags.diags()[0].line, 1);
    EXPECT_NE(diags.diags()[0].message.find("outside any [section]"),
              std::string::npos);
}

TEST(ScenarioParser, RenderedValuesReparseToEqualValues)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\n"
        "name = \"tab\\there\"\n"
        "seed = 64023\n"
        "[env]\n"
        "base = [\"S1\", \"S2\"]\n",
        "mem.scn", diags);
    ASSERT_TRUE(diags.ok());
    for (const scenario::Section &section : doc.sections) {
        for (const scenario::Entry &entry : section.entries) {
            Diagnostics again;
            const Doc round = scenario::parseScenarioText(
                "[x]\nk = " + entry.value.render() + "\n", "r.scn",
                again);
            ASSERT_TRUE(again.ok()) << entry.value.render();
            EXPECT_TRUE(round.find("x")->find("k")->value.equals(
                entry.value))
                << entry.value.render();
        }
    }
}

// ---------------------------------------------------------------------------
// Validator (bindSpec) semantics.

TEST(ScenarioSpecBind, MinimalTextBindsWithDocumentedDefaults)
{
    Diagnostics diags;
    const Doc doc =
        scenario::parseScenarioText("[meta]\nname = \"tiny\"\n",
                                    "mem.scn", diags);
    const ScenarioSpec spec = scenario::bindSpec(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    EXPECT_EQ(spec.name, "tiny");
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_EQ(spec.deviceModel, "Mi8Pro");
    EXPECT_EQ(spec.population, 1);
    EXPECT_EQ(spec.requests, 1000);
    EXPECT_EQ(spec.trainRuns, -1);
    ASSERT_EQ(spec.envBases.size(), 1u);
    EXPECT_EQ(spec.envBases[0], env::ScenarioId::D3);
    EXPECT_FALSE(spec.declaresFaults());
    EXPECT_TRUE(spec.isSet("meta.name"));
    EXPECT_FALSE(spec.isSet("meta.seed"));
    EXPECT_FALSE(spec.isSet("workload.requests"));
}

TEST(ScenarioSpecBind, ErrorsAccumulateWithFileAndLine)
{
    // One bind reports every problem: the whole point of the
    // accumulating validator is a single fix-everything round trip.
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\n"
        "name = \"\"\n"
        "seed = -3\n"
        "[bogus]\n"
        "x = 1\n"
        "[workload]\n"
        "requests = 1.5\n"
        "requests = 7\n"
        "[arrival]\n"
        "rate_x = 2\n"
        "rate_rps = 10\n",
        "multi.scn", diags);
    scenario::bindSpec(doc, diags);
    EXPECT_GE(diags.diags().size(), 5u);
    for (const scenario::Diag &diag : diags.diags()) {
        EXPECT_EQ(diag.file, "multi.scn");
        EXPECT_GE(diag.line, 1);
        EXPECT_FALSE(diag.message.empty());
    }
    const std::string all = diags.render();
    EXPECT_NE(all.find("must be non-empty"), std::string::npos);
    EXPECT_NE(all.find("must be >= 0"), std::string::npos);
    EXPECT_NE(all.find("unknown section [bogus]"), std::string::npos);
    EXPECT_NE(all.find("duplicate key 'requests'"), std::string::npos);
    EXPECT_NE(all.find("mutually exclusive"), std::string::npos);
}

TEST(ScenarioSpecBind, ExplicitKeysTrackOnlyWhatTheFileWrote)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[workload]\n"
        "requests = 200\n"
        "[fault.blackout]\n"
        "start = 10\n"
        "duration = 20\n"
        "wlan = true\n",
        "mem.scn", diags);
    const ScenarioSpec spec = scenario::bindSpec(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    EXPECT_TRUE(spec.isSet("workload.requests"));
    EXPECT_TRUE(spec.isSet("fault.blackout"));
    // Defaults are never conflict candidates, even though the bound
    // spec carries their values.
    EXPECT_FALSE(spec.isSet("workload.train_runs"));
    EXPECT_FALSE(spec.isSet("arrival.rate_x"));
    EXPECT_TRUE(spec.declaresFaults());
}

TEST(ScenarioSpecBind, ChurnAndOutageSectionsBindTyped)
{
    // DESIGN.md §17: [churn] and the infra outage window are fleet
    // resilience knobs; they bind into the typed spec with the same
    // range discipline as everything else. (Rejections — churn on a
    // population of one, probability sums over 1, outage_ms beyond its
    // period — live in the corpus as .bad files.)
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[device]\n"
        "population = 6\n"
        "[infra]\n"
        "outage_period_ms = 1500\n"
        "outage_ms = 300\n"
        "[churn]\n"
        "crash_prob = 0.08\n"
        "leave_prob = 0.04\n"
        "down_epochs = 2\n"
        "initial_devices = 2\n"
        "join_every_epochs = 2\n",
        "mem.scn", diags);
    const ScenarioSpec spec = scenario::bindSpec(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    EXPECT_DOUBLE_EQ(spec.infra.outagePeriodMs, 1500.0);
    EXPECT_DOUBLE_EQ(spec.infra.outageDurationMs, 300.0);
    EXPECT_DOUBLE_EQ(spec.churn.crashProb, 0.08);
    EXPECT_DOUBLE_EQ(spec.churn.leaveProb, 0.04);
    EXPECT_EQ(spec.churn.downEpochs, 2);
    EXPECT_EQ(spec.churn.initialDevices, 2);
    EXPECT_EQ(spec.churn.joinEveryEpochs, 2);
    EXPECT_TRUE(spec.churn.enabled());
    EXPECT_TRUE(spec.isSet("churn.crash_prob"));
    EXPECT_TRUE(spec.isSet("infra.outage_ms"));
}

TEST(ScenarioSpecBind, ChurnProbabilitySumMessageNamesItsKeysOnce)
{
    // The message spells out both keys, so it carries no key-path
    // prefix; it points at the leave_prob line.
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[device]\n"
        "population = 4\n"
        "[churn]\n"
        "crash_prob = 0.7\n"
        "leave_prob = 0.5\n",
        "sum.scn", diags);
    scenario::bindSpec(doc, diags);
    EXPECT_EQ(diags.render(),
              "sum.scn:5: churn.crash_prob + churn.leave_prob must"
              " not exceed 1\n");
}

// ---------------------------------------------------------------------------
// Preset equivalence: the library's preset-named scenarios must mean
// exactly FaultPlan::fromName, field by field. (The byte-identical
// serve-trace version of this check runs as the scenario_preset_equiv
// ctest.)

void
expectWindowEq(const fault::StepWindow &a, const fault::StepWindow &b)
{
    EXPECT_EQ(a.startStep, b.startStep);
    EXPECT_EQ(a.durationSteps, b.durationSteps);
    EXPECT_EQ(a.periodSteps, b.periodSteps);
}

void
expectPlanEq(const fault::FaultPlan &got, const fault::FaultPlan &want)
{
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.seed, want.seed);
    ASSERT_EQ(got.blackouts.size(), want.blackouts.size());
    for (std::size_t i = 0; i < want.blackouts.size(); ++i) {
        expectWindowEq(got.blackouts[i].window, want.blackouts[i].window);
        EXPECT_EQ(got.blackouts[i].wlan, want.blackouts[i].wlan);
        EXPECT_EQ(got.blackouts[i].p2p, want.blackouts[i].p2p);
    }
    ASSERT_EQ(got.fades.size(), want.fades.size());
    for (std::size_t i = 0; i < want.fades.size(); ++i) {
        EXPECT_EQ(got.fades[i].wlan, want.fades[i].wlan);
        EXPECT_DOUBLE_EQ(got.fades[i].dropDb, want.fades[i].dropDb);
        EXPECT_DOUBLE_EQ(got.fades[i].probability,
                         want.fades[i].probability);
    }
    EXPECT_EQ(got.segments.size(), want.segments.size());
    EXPECT_EQ(got.surges.size(), want.surges.size());
    expectWindowEq(got.brownoutWindow, want.brownoutWindow);
    EXPECT_DOUBLE_EQ(got.brownoutSlowdown, want.brownoutSlowdown);
    EXPECT_DOUBLE_EQ(got.brownoutDownProb, want.brownoutDownProb);
    EXPECT_DOUBLE_EQ(got.throttleFactor, want.throttleFactor);
    EXPECT_DOUBLE_EQ(got.throttleProb, want.throttleProb);
    EXPECT_DOUBLE_EQ(got.transferDropProb, want.transferDropProb);
}

TEST(ScenarioPresets, LibraryFilesMatchFromNameFieldByField)
{
    for (const std::string preset :
         {"blackout", "flaky-wifi", "cloud-brownout"}) {
        SCOPED_TRACE(preset);
        Diagnostics diags;
        const std::vector<LoadedScenario> loaded =
            scenario::loadScenarioFile(std::string(AUTOSCALE_SCENARIOS_DIR)
                                           + "/" + preset + ".scn",
                                       diags);
        ASSERT_TRUE(diags.ok()) << diags.render();
        ASSERT_EQ(loaded.size(), 1u);
        expectPlanEq(loaded[0].spec.faults,
                     fault::FaultPlan::fromName(preset));
    }
}

// ---------------------------------------------------------------------------
// Canonicalization: parse -> canonicalize -> reparse is a byte-exact
// fixed point over every file in the library (TEMPLATE.scn included).

TEST(ScenarioCanonical, FixedPointOverTheWholeLibrary)
{
    for (const fs::path &path :
         filesWithExtension(AUTOSCALE_SCENARIOS_DIR, ".scn")) {
        SCOPED_TRACE(path.string());
        Diagnostics diags;
        const Doc doc = scenario::parseScenarioText(
            slurp(path), path.filename().string(), diags);
        ASSERT_TRUE(diags.ok()) << diags.render();

        const std::string canon = scenario::canonicalText(doc);
        Diagnostics again;
        const Doc reparsed = scenario::parseScenarioText(
            canon, path.filename().string(), again);
        ASSERT_TRUE(again.ok()) << again.render();
        EXPECT_EQ(scenario::canonicalText(reparsed), canon);

        // Canonical text still validates and still means the same
        // variants (names, seeds, axis assignments).
        Diagnostics bindDiags;
        const std::vector<LoadedScenario> fromCanon =
            scenario::loadScenarioText(canon, path.filename().string(),
                                       bindDiags);
        ASSERT_TRUE(bindDiags.ok()) << bindDiags.render();
        Diagnostics origDiags;
        const std::vector<LoadedScenario> fromOrig =
            scenario::loadScenarioText(slurp(path),
                                       path.filename().string(),
                                       origDiags);
        ASSERT_TRUE(origDiags.ok()) << origDiags.render();
        ASSERT_EQ(fromCanon.size(), fromOrig.size());
        for (std::size_t i = 0; i < fromOrig.size(); ++i) {
            EXPECT_EQ(fromCanon[i].spec.name, fromOrig[i].spec.name);
            EXPECT_EQ(fromCanon[i].spec.seed, fromOrig[i].spec.seed);
            EXPECT_EQ(fromCanon[i].assignments,
                      fromOrig[i].assignments);
        }
    }
}

TEST(ScenarioLibrary, EveryFileLoadsCleanly)
{
    for (const fs::path &path :
         filesWithExtension(AUTOSCALE_SCENARIOS_DIR, ".scn")) {
        SCOPED_TRACE(path.string());
        Diagnostics diags;
        const std::vector<LoadedScenario> loaded =
            scenario::loadScenarioFile(path.string(), diags);
        EXPECT_TRUE(diags.ok()) << diags.render();
        EXPECT_FALSE(loaded.empty());
    }
}

// ---------------------------------------------------------------------------
// [variant] expansion.

TEST(ScenarioVariants, FileWithoutVariantSectionExpandsToItself)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\nname = \"solo\"\nseed = 9\n", "mem.scn", diags);
    const std::vector<scenario::Variant> variants =
        scenario::expandVariants(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    ASSERT_EQ(variants.size(), 1u);
    EXPECT_EQ(variants[0].index, 0);
    EXPECT_EQ(variants[0].name, "solo");
    EXPECT_EQ(variants[0].seed, 9u);
    EXPECT_TRUE(variants[0].assignments.empty());
}

TEST(ScenarioVariants, CartesianOrderReplicatesAndDerivedSeeds)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[meta]\n"
        "name = \"sweep\"\n"
        "seed = 7\n"
        "[variant]\n"
        "arrival.rate_x = [0.5, 2]\n"
        "env.base = [\"S1\", \"D3\"]\n"
        "replicates = 2\n",
        "mem.scn", diags);
    const std::vector<scenario::Variant> variants =
        scenario::expandVariants(doc, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    ASSERT_EQ(variants.size(), 8u);

    // First axis outermost, replicate index innermost; every variant
    // is named sweep#i and seeded replicateSeed(meta.seed, i) — a pure
    // function of (file, i), so sharded sweeps agree on every seed.
    const char *const expectRate[] = {"0.5", "0.5", "0.5", "0.5",
                                      "2",   "2",   "2",   "2"};
    const char *const expectBase[] = {"\"S1\"", "\"S1\"", "\"D3\"",
                                      "\"D3\"", "\"S1\"", "\"S1\"",
                                      "\"D3\"", "\"D3\""};
    for (int i = 0; i < 8; ++i) {
        SCOPED_TRACE(i);
        const scenario::Variant &variant =
            variants[static_cast<std::size_t>(i)];
        EXPECT_EQ(variant.index, i);
        EXPECT_EQ(variant.name, "sweep#" + std::to_string(i));
        EXPECT_EQ(variant.seed,
                  harness::replicateSeed(
                      7, static_cast<std::uint64_t>(i)));
        ASSERT_EQ(variant.assignments.size(), 2u);
        EXPECT_EQ(variant.assignments[0].first, "arrival.rate_x");
        EXPECT_EQ(variant.assignments[0].second, expectRate[i]);
        EXPECT_EQ(variant.assignments[1].first, "env.base");
        EXPECT_EQ(variant.assignments[1].second, expectBase[i]);

        // The substituted Doc really carries the axis value.
        const scenario::Section *arrival = variant.doc.find("arrival");
        ASSERT_NE(arrival, nullptr);
        EXPECT_EQ(arrival->find("rate_x")->value.render(),
                  expectRate[i]);
        EXPECT_EQ(variant.doc.find("variant"), nullptr);
    }
}

TEST(ScenarioVariants, SweptFilesMakeNameAndSeedConflictCandidates)
{
    // Variant-derived names/seeds are not file-written keys, but a
    // `--seed` flag against a swept file must still be a conflict —
    // the loader marks meta.name/meta.seed explicit for sweeps.
    Diagnostics diags;
    const std::vector<LoadedScenario> loaded = scenario::loadScenarioText(
        "[meta]\nname = \"s\"\nseed = 3\n"
        "[variant]\narrival.rate_x = [1, 2]\n",
        "mem.scn", diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    ASSERT_EQ(loaded.size(), 2u);
    for (const LoadedScenario &one : loaded) {
        EXPECT_TRUE(one.spec.isSet("meta.name"));
        EXPECT_TRUE(one.spec.isSet("meta.seed"));
        EXPECT_TRUE(one.spec.isSet("arrival.rate_x"));
    }
    EXPECT_EQ(loaded[1].spec.name, "s#1");
    EXPECT_EQ(loaded[1].spec.seed, harness::replicateSeed(3, 1));
    // Declared fault plans report under the variant name.
    EXPECT_FALSE(loaded[0].spec.faults.enabled());
}

TEST(ScenarioVariants, AxisErrorsAreReportedPerLine)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[variant]\n"
        "arrival.rate_x = 3\n"
        "meta.name = [\"a\"]\n"
        "fault.blackout.start = [1, 2]\n"
        "replicates = 0\n",
        "mem.scn", diags);
    const std::vector<scenario::Variant> variants =
        scenario::expandVariants(doc, diags);
    EXPECT_TRUE(variants.empty());
    ASSERT_EQ(diags.diags().size(), 4u);
    const std::string all = diags.render();
    EXPECT_NE(all.find("must be a list of values"), std::string::npos);
    EXPECT_NE(all.find("derived per variant"), std::string::npos);
    EXPECT_NE(all.find("not a sweepable singleton section"),
              std::string::npos);
    EXPECT_NE(all.find("replicates must be an integer in [1, 10000]"),
              std::string::npos);
    for (const scenario::Diag &diag : diags.diags()) {
        EXPECT_GE(diag.line, 2);
        EXPECT_LE(diag.line, 5);
    }
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: every tests/scenario_corpus/*.bad file is
// rejected, and the rendered diagnostics contain the substring pinned
// on the file's `#! expect:` first line.

TEST(ScenarioCorpus, EveryBadFileIsRejectedWithItsExpectedError)
{
    const std::string directive = "#! expect: ";
    for (const fs::path &path :
         filesWithExtension(AUTOSCALE_SCENARIO_CORPUS_DIR, ".bad")) {
        SCOPED_TRACE(path.string());
        const std::string text = slurp(path);
        ASSERT_EQ(text.rfind(directive, 0), 0u)
            << "corpus file must start with '" << directive << "...'";
        const std::string expect =
            text.substr(directive.size(),
                        text.find('\n') - directive.size());
        ASSERT_FALSE(expect.empty());

        Diagnostics diags;
        const std::vector<LoadedScenario> loaded =
            scenario::loadScenarioText(
                text, path.filename().string(), diags);
        EXPECT_FALSE(diags.ok())
            << "validator accepted a corpus file meant to be invalid";
        EXPECT_NE(diags.render().find(expect), std::string::npos)
            << "expected substring '" << expect << "' in:\n"
            << diags.render();
        for (const scenario::Diag &diag : diags.diags()) {
            EXPECT_EQ(diag.file, path.filename().string());
            EXPECT_GE(diag.line, 0);
            EXPECT_FALSE(diag.message.empty());
        }
        (void)loaded;
    }
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzer: mangle library files and assert the loader
// never crashes, never reports without file:line, and that mutants
// that still validate keep the canonical fixed point.

std::string
mutate(const std::string &text, Rng &rng)
{
    std::string out = text;
    switch (rng.uniformInt(7)) {
    case 0: // Truncate mid-file (often mid-line, mid-string).
        if (!out.empty()) {
            out.resize(static_cast<std::size_t>(
                rng.uniformInt(static_cast<int>(out.size()))));
        }
        break;
    case 1: { // Duplicate a random line.
        std::vector<std::string> lines;
        std::stringstream stream(out);
        std::string line;
        while (std::getline(stream, line)) {
            lines.push_back(line);
        }
        if (!lines.empty()) {
            const std::size_t at = static_cast<std::size_t>(
                rng.uniformInt(static_cast<int>(lines.size())));
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                         lines[at]);
        }
        out.clear();
        for (const std::string &each : lines) {
            out += each;
            out += '\n';
        }
        break;
    }
    case 2: { // Swap the value after a random '=' for another type.
        const char *const payloads[] = {"\"x\"", "true", "[1, [2]]",
                                        "-1",    "nan",  "1e999"};
        std::vector<std::size_t> equals;
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (out[i] == '=') {
                equals.push_back(i);
            }
        }
        if (!equals.empty()) {
            const std::size_t at = equals[static_cast<std::size_t>(
                rng.uniformInt(static_cast<int>(equals.size())))];
            const std::size_t end = out.find('\n', at);
            out = out.substr(0, at + 1) + " "
                + payloads[rng.uniformInt(6)]
                + (end == std::string::npos ? "" : out.substr(end));
        }
        break;
    }
    case 3: // Random byte edit.
        if (!out.empty()) {
            out[static_cast<std::size_t>(rng.uniformInt(
                static_cast<int>(out.size())))] =
                static_cast<char>(33 + rng.uniformInt(94));
        }
        break;
    case 4: // Inject an unknown section.
        out += "\n[zz" + std::to_string(rng.uniformInt(100)) + "]\n";
        break;
    case 5: // Duplicate the whole file (duplicate sections + keys).
        out += "\n" + out;
        break;
    default: // Delete a random line.
        if (std::count(out.begin(), out.end(), '\n') > 1) {
            const std::size_t from = static_cast<std::size_t>(
                rng.uniformInt(static_cast<int>(out.size())));
            const std::size_t start = out.rfind('\n', from);
            const std::size_t end = out.find('\n', from);
            out = out.substr(0, start == std::string::npos ? 0 : start)
                + (end == std::string::npos ? "" : out.substr(end));
        }
        break;
    }
    return out;
}

TEST(ScenarioFuzz, MutatedLibraryFilesNeverCrashTheLoader)
{
    std::vector<std::string> seeds;
    for (const fs::path &path :
         filesWithExtension(AUTOSCALE_SCENARIOS_DIR, ".scn")) {
        seeds.push_back(slurp(path));
    }
    ASSERT_FALSE(seeds.empty());

    Rng rng(0xbadc0deULL);
    int stillValid = 0;
    for (int iter = 0; iter < 500; ++iter) {
        std::string text =
            seeds[static_cast<std::size_t>(rng.uniformInt(
                static_cast<int>(seeds.size())))];
        const int rounds = 1 + rng.uniformInt(3);
        for (int round = 0; round < rounds; ++round) {
            text = mutate(text, rng);
        }

        Diagnostics diags;
        const std::vector<LoadedScenario> loaded =
            scenario::loadScenarioText(text, "fuzz.scn", diags);
        if (!diags.ok()) {
            // Never accept and report nothing actionable: every
            // diagnostic is anchored to the synthetic file name and a
            // non-negative line.
            for (const scenario::Diag &diag : diags.diags()) {
                ASSERT_EQ(diag.file, "fuzz.scn") << "iter " << iter;
                ASSERT_GE(diag.line, 0) << "iter " << iter;
                ASSERT_FALSE(diag.message.empty()) << "iter " << iter;
            }
            continue;
        }
        // A mutant that still validates must behave like any valid
        // file: at least one variant, and canonicalization stays a
        // fixed point.
        ++stillValid;
        ASSERT_FALSE(loaded.empty()) << "iter " << iter;
        Diagnostics parseDiags;
        const Doc doc = scenario::parseScenarioText(text, "fuzz.scn",
                                                    parseDiags);
        ASSERT_TRUE(parseDiags.ok()) << "iter " << iter;
        const std::string canon = scenario::canonicalText(doc);
        Diagnostics again;
        const Doc reparsed =
            scenario::parseScenarioText(canon, "fuzz.scn", again);
        ASSERT_TRUE(again.ok())
            << "iter " << iter << "\n" << again.render();
        ASSERT_EQ(scenario::canonicalText(reparsed), canon)
            << "iter " << iter;
    }
    // The mutator is noisy but not universally destructive; if nothing
    // survives the corpus stopped exercising the accept path.
    EXPECT_GT(stillValid, 0);
}

// ---------------------------------------------------------------------------
// The command-line overlay (DESIGN.md §16): flags are entries laid over
// the file's Doc and bound by the same bindSpec.

scenario::FlagSetting
flagSetting(const std::string &flag, const std::string &dotted,
            const std::string &text)
{
    Diagnostics diags;
    const Doc doc = scenario::parseScenarioText(
        "[s]\nv = " + text + "\n", "flag", diags);
    EXPECT_TRUE(diags.ok()) << diags.render();
    const std::size_t dot = dotted.find('.');
    return {flag, dotted.substr(0, dot), dotted.substr(dot + 1),
            doc.sections.at(0).entries.at(0).value};
}

TEST(ScenarioFlags, OverlayRestatesConflictsAndNamesTheFlag)
{
    Diagnostics loadDiags;
    const std::vector<LoadedScenario> loaded = scenario::loadScenarioText(
        "[meta]\nseed = 7\n[env]\nbase = [\"S1\"]\n[qos]\n"
        "queue_depth = 48\n",
        "base.scn", loadDiags);
    ASSERT_TRUE(loadDiags.ok()) << loadDiags.render();

    // Equal restatements (a one-item list restates its item) and new
    // keys bind; the flag value lands in the spec.
    Diagnostics diags;
    const ScenarioSpec spec = scenario::bindWithFlags(
        &loaded[0],
        {flagSetting("--queue-depth", "qos.queue_depth", "48.0"),
         flagSetting("--scenarios", "env.base", "\"S1\""),
         flagSetting("--seed", "meta.seed", "7"),
         flagSetting("--degrade-depth", "qos.degrade_depth", "3")},
        diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    EXPECT_EQ(spec.queueDepth, 48);
    EXPECT_EQ(spec.degradeDepth, 3);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.sourceFile, "base.scn");

    // A different value is a conflict that names the flag and the file.
    Diagnostics conflict;
    scenario::bindWithFlags(
        &loaded[0], {flagSetting("--queue-depth", "qos.queue_depth", "50")},
        conflict);
    ASSERT_EQ(conflict.diags().size(), 1u) << conflict.render();
    EXPECT_EQ(conflict.diags()[0].file, "--queue-depth");
    EXPECT_NE(conflict.render().find("--queue-depth: 50 conflicts with "
                                     "qos.queue_depth = 48 from base.scn"),
              std::string::npos)
        << conflict.render();

    // A cross-field rule between two flags lands on a flag, never on a
    // line: without a file every entry is a flag.
    Diagnostics cross;
    const ScenarioSpec flagsOnly = scenario::bindWithFlags(
        nullptr,
        {flagSetting("--rate-x", "arrival.rate_x", "1"),
         flagSetting("--rate-hz", "arrival.rate_rps", "5")},
        cross);
    ASSERT_EQ(cross.diags().size(), 1u) << cross.render();
    EXPECT_EQ(cross.diags()[0].file, "--rate-hz");
    EXPECT_EQ(cross.diags()[0].line, 0);
    EXPECT_EQ(cross.render(),
              "--rate-hz: arrival.rate_rps and arrival.rate_x are mutually "
              "exclusive; set one\n");
    EXPECT_TRUE(flagsOnly.sourceFile.empty());
}

TEST(ScenarioFlags, SeedFlagComparesAgainstTheSweepDerivedSeed)
{
    Diagnostics loadDiags;
    const std::vector<LoadedScenario> loaded = scenario::loadScenarioText(
        "[meta]\nseed = 3\n[variant]\narrival.rate_rps = [1, 2]\n",
        "sweep.scn", loadDiags);
    ASSERT_EQ(loaded.size(), 2u) << loadDiags.render();
    const LoadedScenario &second = loaded[1];
    ASSERT_NE(second.spec.seed, 3u);

    Diagnostics base;
    scenario::bindWithFlags(&second,
                            {flagSetting("--seed", "meta.seed", "3")}, base);
    EXPECT_FALSE(base.ok()) << "the base seed is not this variant's seed";

    Diagnostics derived;
    const ScenarioSpec spec = scenario::bindWithFlags(
        &second, {flagSetting("--rate-x", "arrival.rate_x", "9")}, derived);
    // The overlay keeps the variant's identity, and rate_x crossing the
    // swept rate_rps names the flag on the file's line.
    EXPECT_EQ(spec.seed, second.spec.seed);
    EXPECT_EQ(spec.name, "scenario#1");
    ASSERT_EQ(derived.diags().size(), 1u) << derived.render();
    EXPECT_EQ(derived.diags()[0].file, "sweep.scn");
    EXPECT_NE(derived.render().find("(with --rate-x)"), std::string::npos)
        << derived.render();
}

/** Exit code and combined output of `autoscale_cli @p args`. */
std::pair<int, std::string>
runCli(const std::string &args)
{
    const std::string out = testing::TempDir() + "autoscale_cli_out.txt";
    const int status = std::system(
        (std::string("'") + AUTOSCALE_CLI + "' " + args + " > '" + out
         + "' 2>&1")
            .c_str());
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, slurp(out)};
}

// One validator per setting: every scenario key with a flag spelling
// rejects the same out-of-range value as a file key and as an
// autoscale_cli flag, with the same message; the flag's diagnostic
// names the flag. The CLI's usage lists each flag's key, and every
// listed pair must have a row here.
TEST(ScenarioFlags, EveryKeyedFlagRejectsWhatTheFileRejects)
{
    struct Case {
        const char *flag;
        const char *command;
        const char *value; ///< Out of range (or of the wrong shape).
    };
    const std::vector<Case> cases = {
        {"--device", "serve", "Nope"},
        {"--fleet", "serve", "0"},
        {"--seed", "serve", "-1"},
        {"--network", "serve", "Nope"},
        {"--accuracy", "serve", "101"},
        {"--requests", "serve", "0"},
        {"--runs", "train", "-1"},
        {"--train-runs", "serve", "2000000"},
        {"--scenarios", "train", "S9"},
        {"--rate-x", "serve", "0"},
        {"--rate-hz", "serve", "0"},
        {"--burst-period-ms", "serve", "nan"},
        {"--burst-ms", "serve", "-1"},
        {"--burst-mult", "serve", "0"},
        {"--queue-depth", "serve", "2000000"},
        {"--degrade-depth", "serve", "-5"},
        {"--fault-seed", "serve", "-1"},
        {"--timeout-ms", "serve", "0"},
        {"--max-retries", "serve", "101"},
        {"--backoff-ms", "serve", "-1"},
        {"--backoff-mult", "serve", "0"},
        {"--q-mode", "serve", "nope"},
        {"--merge-epochs", "serve", "0"},
        {"--epoch-ms", "serve", "0"},
        {"--edge-capacity", "serve", "0"},
        {"--wifi-capacity", "serve", "0"},
        {"--contention", "serve", "0"},
        {"--brownout-period-ms", "serve", "-1"},
        {"--brownout-ms", "serve", "-1"},
        {"--brownout-slowdown", "serve", "0.5"},
        {"--outage-period-ms", "serve", "-1"},
        {"--outage-ms", "serve", "-1"},
        {"--churn-crash-prob", "serve", "1.5"},
        {"--churn-leave-prob", "serve", "-0.1"},
        {"--churn-down-epochs", "serve", "0"},
        {"--churn-initial-devices", "serve", "-1"},
        {"--churn-join-every", "serve", "0"},
    };

    // (flag, key) pairs from the usage text: "  --flag META  help" is
    // followed by a scope line ending in "[section.key]".
    const auto [usageCode, usage] = runCli("");
    ASSERT_EQ(usageCode, 2);
    std::vector<std::pair<std::string, std::string>> keyed;
    std::istringstream lines(usage);
    std::string line;
    std::string flag;
    while (std::getline(lines, line)) {
        const std::size_t open = line.rfind('[');
        const std::string key = open == std::string::npos
            ? ""
            : line.substr(open + 1, line.size() - open - 2);
        if (line.rfind("  --", 0) == 0) {
            flag = line.substr(2, line.find(' ', 2) - 2);
        } else if (!flag.empty() && !line.empty() && line.back() == ']'
                   && key.find('.') != std::string::npos
                   && key.find(' ') == std::string::npos) {
            keyed.emplace_back(flag, key);
        }
    }
    ASSERT_EQ(keyed.size(), cases.size()) << usage;

    for (const auto &[flagName, key] : keyed) {
        SCOPED_TRACE(flagName + " -> " + key);
        const auto it = std::find_if(
            cases.begin(), cases.end(),
            [&](const Case &c) { return flagName == c.flag; });
        ASSERT_NE(it, cases.end()) << "no out-of-range row for " << flagName;

        // Fleet, infra and churn keys only bind on a fleet.
        const std::string section = key.substr(0, key.find('.'));
        const bool fleet = section == "fleet" || section == "infra"
            || section == "churn";
        const std::string value = it->value;
        const bool number = value.find_first_not_of("-.0123456789nan")
            == std::string::npos;
        Diagnostics diags;
        scenario::loadScenarioText(
            std::string(fleet ? "[device]\npopulation = 2\n" : "") + "["
                + section + "]\n" + key.substr(key.find('.') + 1) + " = "
                + (number ? value : "\"" + value + "\"") + "\n",
            "one.scn", diags);
        ASSERT_EQ(diags.diags().size(), 1u) << diags.render();
        const std::string message = diags.diags()[0].message;
        EXPECT_NE(message.find(key), std::string::npos) << message;

        const auto [code, output] = runCli(
            std::string(it->command) + (fleet ? " --fleet 2 " : " ")
            + flagName + " '" + value + "'");
        EXPECT_EQ(code, 1) << output;
        EXPECT_NE(output.find(flagName + ": " + message), std::string::npos)
            << "file says: " << message << "\nflag says: " << output;
    }
}

} // namespace
} // namespace autoscale
