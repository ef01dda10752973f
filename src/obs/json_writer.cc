#include "obs/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace jxp {
namespace obs {

JsonWriter::JsonWriter() {
  out_.push_back('{');
  scopes_.push_back(true);
  has_member_.push_back(false);
}

void JsonWriter::AppendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          // Multi-byte UTF-8 sequences pass through unchanged.
          out.push_back(c);
        }
    }
  }
}

void JsonWriter::AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  JXP_CHECK(ec == std::errc());
  out.append(buf, end);
}

void JsonWriter::BeginValue(std::string_view key) {
  JXP_CHECK(!scopes_.empty()) << "JsonWriter already finished";
  JXP_CHECK(scopes_.back()) << "Field() inside an array; use Element()";
  if (has_member_.back()) out_.push_back(',');
  has_member_.back() = true;
  out_.push_back('"');
  AppendEscaped(out_, key);
  out_ += "\":";
}

void JsonWriter::BeginElement() {
  JXP_CHECK(!scopes_.empty()) << "JsonWriter already finished";
  JXP_CHECK(!scopes_.back()) << "Element() outside an array";
  if (has_member_.back()) out_.push_back(',');
  has_member_.back() = true;
}

JsonWriter& JsonWriter::Field(std::string_view key, std::string_view value) {
  BeginValue(key);
  out_.push_back('"');
  AppendEscaped(out_, value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, const char* value) {
  return Field(key, std::string_view(value));
}

JsonWriter& JsonWriter::Field(std::string_view key, double value) {
  BeginValue(key);
  AppendDouble(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, bool value) {
  BeginValue(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::FieldInt(std::string_view key, int64_t value) {
  BeginValue(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::FieldUint(std::string_view key, uint64_t value) {
  BeginValue(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::FieldRawJson(std::string_view key, std::string_view json) {
  BeginValue(key);
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::BeginObject(std::string_view key) {
  BeginValue(key);
  out_.push_back('{');
  scopes_.push_back(true);
  has_member_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::BeginArray(std::string_view key) {
  BeginValue(key);
  out_.push_back('[');
  scopes_.push_back(false);
  has_member_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Element(double value) {
  BeginElement();
  AppendDouble(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Element(std::string_view value) {
  BeginElement();
  out_.push_back('"');
  AppendEscaped(out_, value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::End() {
  JXP_CHECK_GT(scopes_.size(), 1u) << "End() would close the root object; use TakeLine()";
  out_.push_back(scopes_.back() ? '}' : ']');
  scopes_.pop_back();
  has_member_.pop_back();
  return *this;
}

std::string JsonWriter::TakeLine() {
  while (scopes_.size() > 1) End();
  out_.push_back('}');
  std::string line = std::move(out_);
  out_.clear();
  out_.push_back('{');
  scopes_.assign(1, true);
  has_member_.assign(1, false);
  return line;
}

}  // namespace obs
}  // namespace jxp
