#include "dag/serialize.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/check.h"

namespace wire::dag {

std::string escape_token(const std::string& raw) {
  if (raw.empty()) return "\\e";
  std::string out;
  out.reserve(raw.size());
  for (char ch : raw) {
    switch (ch) {
      case ' ': out += "\\s"; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string unescape_token(const std::string& token) {
  if (token == "\\e") return {};
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '\\') {
      out += token[i];
      continue;
    }
    WIRE_REQUIRE(i + 1 < token.size(), "dangling escape in token");
    switch (token[++i]) {
      case 's': out += ' '; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'e': break;  // empty marker inside a token: contributes nothing
      default:
        WIRE_REQUIRE(false, "unknown escape in token");
    }
  }
  return out;
}

void write_workflow(std::ostream& os, const Workflow& wf) {
  os << "workflow " << escape_token(wf.name()) << '\n';
  for (const StageSpec& s : wf.stages()) {
    os << "stage " << s.id << ' ' << escape_token(s.name) << ' '
       << escape_token(s.executable) << '\n';
  }
  os.precision(17);
  for (const TaskSpec& t : wf.tasks()) {
    os << "task " << t.id << ' ' << t.stage << ' '
       << escape_token(wf.task_name(t.id)) << ' ' << t.input_mb << ' '
       << t.output_mb << ' ' << t.ref_exec_seconds;
    const auto preds = wf.predecessors(t.id);
    os << ' ' << preds.size();
    for (TaskId p : preds) os << ' ' << p;
    os << '\n';
  }
  os << "end\n";
}

std::string to_string(const Workflow& wf) {
  std::ostringstream os;
  write_workflow(os, wf);
  return os.str();
}

Workflow read_workflow(std::istream& is) {
  std::string keyword;
  WIRE_REQUIRE(static_cast<bool>(is >> keyword) && keyword == "workflow",
               "expected 'workflow' header");
  std::string name_token;
  WIRE_REQUIRE(static_cast<bool>(is >> name_token), "missing workflow name");
  WorkflowBuilder builder(unescape_token(name_token));

  bool saw_end = false;
  while (is >> keyword) {
    if (keyword == "end") {
      saw_end = true;
      break;
    }
    if (keyword == "stage") {
      StageId id;
      std::string name, exe;
      WIRE_REQUIRE(static_cast<bool>(is >> id >> name >> exe),
                   "malformed stage line");
      const StageId assigned =
          builder.add_stage(unescape_token(name), unescape_token(exe));
      WIRE_REQUIRE(assigned == id, "stage ids must be dense and in order");
    } else if (keyword == "task") {
      TaskId id;
      StageId stage;
      std::string name;
      double input_mb, output_mb, exec_s;
      std::size_t npred;
      WIRE_REQUIRE(static_cast<bool>(is >> id >> stage >> name >> input_mb >>
                                     output_mb >> exec_s >> npred),
                   "malformed task line");
      std::vector<TaskId> preds(npred);
      for (std::size_t i = 0; i < npred; ++i) {
        WIRE_REQUIRE(static_cast<bool>(is >> preds[i]),
                     "malformed predecessor list");
      }
      const TaskId assigned =
          builder.add_task(stage, unescape_token(name), input_mb, output_mb,
                           exec_s, std::move(preds));
      WIRE_REQUIRE(assigned == id, "task ids must be dense and in order");
    } else {
      WIRE_REQUIRE(false, "unknown keyword '" + keyword + "'");
    }
  }
  WIRE_REQUIRE(saw_end, "missing 'end' terminator");
  return builder.build();
}

Workflow from_string(const std::string& text) {
  std::istringstream is(text);
  return read_workflow(is);
}

}  // namespace wire::dag
