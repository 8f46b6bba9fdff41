/**
 * @file
 * Line-oriented scenario-file parser (DESIGN.md §16). The format is a
 * dependency-free flat `key = value` dialect:
 *
 *   # comment to end of line
 *   [section.name]          # singleton or repeatable section header
 *   key = 3.5               # number (strtod grammar)
 *   key = "text"            # quoted string, \" \\ \n \t escapes
 *   key = true              # boolean
 *   key = ["S1", "S2"]      # flat list of scalars (no nesting)
 *
 * The parser is deliberately tolerant at the *file* level and strict at
 * the *line* level: a malformed line is skipped and reported, and
 * parsing continues, so a single pass over a broken file accumulates
 * every actionable diagnostic instead of fataling on the first. Every
 * diagnostic carries file:line. Semantic checks (known sections/keys,
 * ranges, duplicates) live in spec.h's binder, not here.
 */

#ifndef AUTOSCALE_SCENARIO_PARSER_H_
#define AUTOSCALE_SCENARIO_PARSER_H_

#include <string>
#include <vector>

namespace autoscale::scenario {

/** One accumulated diagnostic, always anchored to file:line. */
struct Diag {
    std::string file;
    int line = 0;
    std::string message;

    /** "file:line: message", or "file: message" without a line. */
    std::string render() const;
};

/**
 * Error accumulator shared by the parser, binder, and variant
 * expander. Collects every problem found; callers check ok() once at
 * the end and render the full list, so a user fixes a broken scenario
 * in one round trip instead of one error per run.
 */
class Diagnostics {
  public:
    void
    error(const std::string &file, int line, const std::string &message)
    {
        diags_.push_back(Diag{file, line, message});
    }

    bool ok() const { return diags_.empty(); }
    const std::vector<Diag> &diags() const { return diags_; }

    /** All diagnostics, one "file:line: message" per line. */
    std::string render() const;

  private:
    std::vector<Diag> diags_;
};

/** A parsed scalar or flat list value. */
struct Value {
    enum class Kind { String, Number, Bool, List };
    Kind kind = Kind::String;
    std::string str;          ///< String payload.
    double num = 0.0;         ///< Number payload (integers included).
    bool boolean = false;     ///< Bool payload.
    std::vector<Value> items; ///< List payload (scalars only).
    int line = 0;

    /** Canonical source form ("3.5", "\"text\"", "[1, 2]"). */
    std::string render() const;

    /** Whether two values are identical in kind and payload. */
    bool equals(const Value &other) const;
};

/** One `key = value` line. */
struct Entry {
    std::string key;
    Value value;
    int line = 0;
};

/** One `[name]` section and the entries under it. */
struct Section {
    std::string name;
    int line = 0;
    std::vector<Entry> entries;

    /** First entry named @p key, or nullptr. */
    const Entry *find(const std::string &key) const;
};

/** A whole parsed file. */
struct Doc {
    std::string file;
    std::vector<Section> sections;

    /** First section named @p name, or nullptr. */
    const Section *find(const std::string &name) const;
    Section *find(const std::string &name);

    /**
     * Set @p key of the first section named @p sectionName to
     * @p value, replacing an existing entry or appending one (and the
     * section, if missing) at @p line.
     */
    void set(const std::string &sectionName, const std::string &key,
             Value value, int line);
};

/**
 * Parse scenario text. @p file is used only for diagnostics. Malformed
 * lines are reported into @p diags and skipped; the returned Doc holds
 * everything that did parse (possibly empty).
 */
Doc parseScenarioText(const std::string &text, const std::string &file,
                      Diagnostics &diags);

/**
 * Read and parse a scenario file. An unreadable file is a single
 * diagnostic at line 0.
 */
Doc parseScenarioFile(const std::string &path, Diagnostics &diags);

} // namespace autoscale::scenario

#endif // AUTOSCALE_SCENARIO_PARSER_H_
