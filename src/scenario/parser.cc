#include "scenario/parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/format.h"

namespace autoscale::scenario {

namespace {

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'
        || c == '-' || c == '.';
}

bool
isIdentifier(const std::string &token)
{
    if (token.empty()) {
        return false;
    }
    for (const char c : token) {
        if (!isIdentChar(c)) {
            return false;
        }
    }
    return true;
}

/** Strip trailing whitespace in place. */
void
rtrim(std::string &text)
{
    while (!text.empty()
           && std::isspace(static_cast<unsigned char>(text.back())) != 0) {
        text.pop_back();
    }
}

/** Index of the first non-whitespace character at or after @p at. */
std::size_t
skipSpace(const std::string &text, std::size_t at)
{
    while (at < text.size()
           && std::isspace(static_cast<unsigned char>(text[at])) != 0) {
        ++at;
    }
    return at;
}

/**
 * Parse one scalar from @p text starting at @p at. On success advances
 * @p at past the scalar and returns true; on failure records a
 * diagnostic and returns false.
 */
bool
parseScalar(const std::string &text, std::size_t &at, int line,
            const std::string &file, Value &out, Diagnostics &diags)
{
    out.line = line;
    if (at >= text.size()) {
        diags.error(file, line, "expected a value");
        return false;
    }
    if (text[at] == '"') {
        out.kind = Value::Kind::String;
        std::string result;
        std::size_t i = at + 1;
        while (i < text.size() && text[i] != '"') {
            char c = text[i];
            if (c == '\\') {
                if (i + 1 >= text.size()) {
                    break;
                }
                ++i;
                switch (text[i]) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  default:
                    diags.error(file, line,
                                std::string("unknown escape '\\")
                                    + text[i] + "' in string");
                    return false;
                }
            }
            result.push_back(c);
            ++i;
        }
        if (i >= text.size()) {
            diags.error(file, line, "unterminated string");
            return false;
        }
        out.str = std::move(result);
        at = i + 1;
        return true;
    }
    // Bare token: runs to whitespace, ',', ']', or a comment.
    std::size_t end = at;
    while (end < text.size() && text[end] != ',' && text[end] != ']'
           && text[end] != '#'
           && std::isspace(static_cast<unsigned char>(text[end])) == 0) {
        ++end;
    }
    const std::string token = text.substr(at, end - at);
    if (token.empty()) {
        diags.error(file, line, "expected a value");
        return false;
    }
    if (token == "true" || token == "false") {
        out.kind = Value::Kind::Bool;
        out.boolean = token == "true";
        at = end;
        return true;
    }
    errno = 0;
    char *parse_end = nullptr;
    const double parsed = std::strtod(token.c_str(), &parse_end);
    if (parse_end != token.c_str() + token.size()) {
        diags.error(file, line,
                    "expected a value, got '" + token
                        + "' (strings need double quotes)");
        return false;
    }
    if (errno == ERANGE) {
        diags.error(file, line,
                    "numeric overflow in '" + token + "'");
        return false;
    }
    out.kind = Value::Kind::Number;
    out.num = parsed;
    at = end;
    return true;
}

bool
parseValue(const std::string &text, std::size_t &at, int line,
           const std::string &file, Value &out, Diagnostics &diags)
{
    at = skipSpace(text, at);
    if (at < text.size() && text[at] == '[') {
        out.kind = Value::Kind::List;
        out.line = line;
        ++at;
        at = skipSpace(text, at);
        if (at < text.size() && text[at] == ']') {
            ++at;
            return true;
        }
        while (true) {
            Value item;
            if (!parseScalar(text, at, line, file, item, diags)) {
                return false;
            }
            if (item.kind == Value::Kind::List) {
                diags.error(file, line, "nested lists are not supported");
                return false;
            }
            out.items.push_back(std::move(item));
            at = skipSpace(text, at);
            if (at < text.size() && text[at] == ',') {
                ++at;
                at = skipSpace(text, at);
                continue;
            }
            if (at < text.size() && text[at] == ']') {
                ++at;
                return true;
            }
            diags.error(file, line, "expected ',' or ']' in list");
            return false;
        }
    }
    return parseScalar(text, at, line, file, out, diags);
}

/** Whether only whitespace or a comment remains at @p at. */
bool
restIsEmpty(const std::string &text, std::size_t at)
{
    at = skipSpace(text, at);
    return at >= text.size() || text[at] == '#';
}

} // namespace

std::string
Diag::render() const
{
    std::ostringstream os;
    os << file;
    if (line > 0) {
        os << ":" << line;
    }
    os << ": " << message;
    return os.str();
}

std::string
Diagnostics::render() const
{
    std::string result;
    for (const Diag &diag : diags_) {
        result += diag.render();
        result += '\n';
    }
    return result;
}

std::string
Value::render() const
{
    switch (kind) {
      case Kind::String: {
        std::string result = "\"";
        for (const char c : str) {
            switch (c) {
              case '"': result += "\\\""; break;
              case '\\': result += "\\\\"; break;
              case '\n': result += "\\n"; break;
              case '\t': result += "\\t"; break;
              default: result.push_back(c);
            }
        }
        result += '"';
        return result;
      }
      case Kind::Number:
        return formatDouble(num);
      case Kind::Bool:
        return boolean ? "true" : "false";
      case Kind::List: {
        std::string result = "[";
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i > 0) {
                result += ", ";
            }
            result += items[i].render();
        }
        result += ']';
        return result;
      }
    }
    return "";
}

bool
Value::equals(const Value &other) const
{
    if (kind != other.kind) {
        return false;
    }
    switch (kind) {
      case Kind::String:
        return str == other.str;
      case Kind::Number:
        // Canonical-text comparison: NaN payloads compare by their
        // rendering ("null"), which is what matters for conflict and
        // fixed-point checks.
        return formatDouble(num) == formatDouble(other.num);
      case Kind::Bool:
        return boolean == other.boolean;
      case Kind::List:
        if (items.size() != other.items.size()) {
            return false;
        }
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (!items[i].equals(other.items[i])) {
                return false;
            }
        }
        return true;
    }
    return false;
}

const Entry *
Section::find(const std::string &key) const
{
    for (const Entry &entry : entries) {
        if (entry.key == key) {
            return &entry;
        }
    }
    return nullptr;
}

const Section *
Doc::find(const std::string &name) const
{
    for (const Section &section : sections) {
        if (section.name == name) {
            return &section;
        }
    }
    return nullptr;
}

Section *
Doc::find(const std::string &name)
{
    for (Section &section : sections) {
        if (section.name == name) {
            return &section;
        }
    }
    return nullptr;
}

void
Doc::set(const std::string &sectionName, const std::string &key,
         Value value, int line)
{
    Section *section = find(sectionName);
    if (section == nullptr) {
        sections.push_back(Section{sectionName, line, {}});
        section = &sections.back();
    }
    value.line = line;
    for (Entry &entry : section->entries) {
        if (entry.key == key) {
            entry.value = std::move(value);
            return;
        }
    }
    section->entries.push_back(Entry{key, std::move(value), line});
}

Doc
parseScenarioText(const std::string &text, const std::string &file,
                  Diagnostics &diags)
{
    Doc doc;
    doc.file = file;
    std::istringstream stream(text);
    std::string raw;
    int line = 0;
    while (std::getline(stream, raw)) {
        ++line;
        if (!raw.empty() && raw.back() == '\r') {
            raw.pop_back();
        }
        std::size_t at = skipSpace(raw, 0);
        if (at >= raw.size() || raw[at] == '#') {
            continue;
        }
        if (raw[at] == '[') {
            const std::size_t close = raw.find(']', at);
            if (close == std::string::npos) {
                diags.error(file, line, "unterminated section header");
                continue;
            }
            const std::string name = raw.substr(at + 1, close - at - 1);
            if (!isIdentifier(name)) {
                diags.error(file, line,
                            "bad section name '[" + name + "]'");
                continue;
            }
            if (!restIsEmpty(raw, close + 1)) {
                diags.error(file, line,
                            "unexpected text after section header");
                continue;
            }
            Section section;
            section.name = name;
            section.line = line;
            doc.sections.push_back(std::move(section));
            continue;
        }
        const std::size_t eq = raw.find('=', at);
        if (eq == std::string::npos) {
            diags.error(file, line,
                        "expected 'key = value' or '[section]'");
            continue;
        }
        std::string key = raw.substr(at, eq - at);
        rtrim(key);
        if (!isIdentifier(key)) {
            diags.error(file, line, "bad key '" + key + "'");
            continue;
        }
        if (doc.sections.empty()) {
            diags.error(file, line,
                        "key '" + key + "' outside any [section]");
            continue;
        }
        Entry entry;
        entry.key = key;
        entry.line = line;
        std::size_t value_at = eq + 1;
        if (!parseValue(raw, value_at, line, file, entry.value, diags)) {
            continue;
        }
        if (!restIsEmpty(raw, value_at)) {
            diags.error(file, line,
                        "unexpected text after value of '" + key + "'");
            continue;
        }
        doc.sections.back().entries.push_back(std::move(entry));
    }
    return doc;
}

Doc
parseScenarioFile(const std::string &path, Diagnostics &diags)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        diags.error(path, 0, "cannot open scenario file");
        Doc doc;
        doc.file = path;
        return doc;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return parseScenarioText(buffer.str(), path, diags);
}

} // namespace autoscale::scenario
