#include "telemetry/jsonl_sink.hpp"

namespace acclaim::telemetry {

void read_jsonl_file(const std::string& path, const char* what,
                     const std::function<void(const util::Json&)>& on_line) {
  std::ifstream in(path);
  if (!in) {
    throw IoError(std::string("cannot open ") + what + " '" + path + "'");
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    try {
      on_line(util::Json::parse(line));
    } catch (const Error& e) {
      throw ParseError(path + ":" + std::to_string(lineno) + ": " + e.what(), lineno, 1);
    }
  }
}

}  // namespace acclaim::telemetry
