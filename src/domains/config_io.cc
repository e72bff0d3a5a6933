#include "domains/config_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

namespace cmom::domains {

namespace {

// Strips comments and surrounding whitespace.
std::string_view CleanLine(std::string_view line) {
  if (const auto hash = line.find('#'); hash != std::string_view::npos) {
    line = line.substr(0, hash);
  }
  while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
    line.remove_prefix(1);
  }
  while (!line.empty() &&
         (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  return line;
}

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::istringstream stream{std::string(line)};
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

Result<std::uint64_t> ParseUnsigned(const std::string& token) {
  std::uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("not a number: '" + token + "'");
  }
  return value;
}

// Server and domain ids are 16-bit on the wire and in the store.
constexpr std::uint64_t kMaxId = 0xFFFF;

Result<std::uint16_t> ParseId(const std::string& token) {
  auto value = ParseUnsigned(token);
  if (!value.ok()) return value.status();
  if (value.value() > kMaxId) {
    return Status::InvalidArgument("id " + token + " exceeds " +
                                   std::to_string(kMaxId));
  }
  return static_cast<std::uint16_t>(value.value());
}

Result<double> ParseDouble(const std::string& token) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(token, &consumed);
    if (consumed != token.size()) {
      return Status::InvalidArgument("not a number: '" + token + "'");
    }
    return value;
  } catch (const std::exception&) {
    return Status::InvalidArgument("not a number: '" + token + "'");
  }
}

}  // namespace

Result<MomConfig> ParseMomConfig(std::string_view text) {
  MomConfig config;
  bool saw_servers = false;

  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    std::string_view raw =
        text.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                         : end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_number;

    const std::string_view line = CleanLine(raw);
    if (line.empty()) continue;
    auto tokens = Tokenize(line);
    auto error = [&](const std::string& message) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + message);
    };

    if (tokens[0] == "servers") {
      if (tokens.size() < 3 || tokens[1] != "=") {
        return error("expected 'servers = <n> | <id list>'");
      }
      if (saw_servers) return error("duplicate 'servers' line");
      saw_servers = true;
      if (tokens.size() == 3) {
        auto count = ParseUnsigned(tokens[2]);
        if (!count.ok()) return error(count.status().message());
        if (count.value() > kMaxId + 1) {
          return error("server count " + tokens[2] + " exceeds " +
                       std::to_string(kMaxId + 1));
        }
        for (std::uint64_t i = 0; i < count.value(); ++i) {
          config.servers.push_back(
              ServerId(static_cast<std::uint16_t>(i)));
        }
      } else {
        for (std::size_t t = 2; t < tokens.size(); ++t) {
          auto id = ParseId(tokens[t]);
          if (!id.ok()) return error(id.status().message());
          config.servers.push_back(ServerId(id.value()));
        }
      }
    } else if (tokens[0] == "domain") {
      if (tokens.size() < 4 || tokens[2] != "=") {
        return error("expected 'domain <id> = <member list>'");
      }
      auto id = ParseId(tokens[1]);
      if (!id.ok()) return error(id.status().message());
      DomainSpec domain{DomainId(id.value()), {}};
      for (std::size_t t = 3; t < tokens.size(); ++t) {
        auto member = ParseId(tokens[t]);
        if (!member.ok()) return error(member.status().message());
        domain.members.push_back(ServerId(member.value()));
      }
      config.domains.push_back(std::move(domain));
    } else if (tokens[0] == "stamp_mode") {
      if (tokens.size() != 3 || tokens[1] != "=") {
        return error("expected 'stamp_mode = updates|full'");
      }
      if (tokens[2] == "updates") {
        config.stamp_mode = clocks::StampMode::kUpdates;
      } else if (tokens[2] == "full") {
        config.stamp_mode = clocks::StampMode::kFullMatrix;
      } else {
        return error("unknown stamp mode '" + tokens[2] + "'");
      }
    } else if (tokens[0] == "allow_cyclic") {
      if (tokens.size() != 3 || tokens[1] != "=") {
        return error("expected 'allow_cyclic = true|false'");
      }
      if (tokens[2] == "true") {
        config.allow_cyclic_domain_graph = true;
      } else if (tokens[2] == "false") {
        config.allow_cyclic_domain_graph = false;
      } else {
        return error("expected true or false");
      }
    } else {
      return error("unknown directive '" + tokens[0] + "'");
    }
  }
  if (!saw_servers) {
    return Status::InvalidArgument("missing 'servers' line");
  }
  return config;
}

std::string FormatMomConfig(const MomConfig& config) {
  std::ostringstream out;
  // Use the dense shorthand when ids are 0..n-1.
  bool dense = true;
  for (std::size_t i = 0; i < config.servers.size(); ++i) {
    if (config.servers[i] != ServerId(static_cast<std::uint16_t>(i))) {
      dense = false;
      break;
    }
  }
  out << "servers =";
  if (dense) {
    out << " " << config.servers.size();
  } else {
    for (ServerId id : config.servers) out << " " << id.value();
  }
  out << "\n";
  out << "stamp_mode = "
      << (config.stamp_mode == clocks::StampMode::kUpdates ? "updates"
                                                           : "full")
      << "\n";
  if (config.allow_cyclic_domain_graph) out << "allow_cyclic = true\n";
  for (const DomainSpec& domain : config.domains) {
    out << "domain " << domain.id.value() << " =";
    for (ServerId member : domain.members) out << " " << member.value();
    out << "\n";
  }
  return out.str();
}

Result<TrafficProfile> ParseTrafficProfile(std::string_view text) {
  struct Entry {
    std::size_t from, to;
    double weight;
  };
  std::vector<Entry> entries;
  std::size_t max_server = 0;

  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    std::string_view raw =
        text.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                         : end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_number;
    const std::string_view line = CleanLine(raw);
    if (line.empty()) continue;
    auto tokens = Tokenize(line);
    if (tokens.size() != 3) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) +
          ": expected '<from> <to> <weight>'");
    }
    auto from = ParseUnsigned(tokens[0]);
    if (!from.ok()) return from.status();
    auto to = ParseUnsigned(tokens[1]);
    if (!to.ok()) return to.status();
    auto weight = ParseDouble(tokens[2]);
    if (!weight.ok()) return weight.status();
    if (weight.value() < 0) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": negative weight");
    }
    entries.push_back(Entry{static_cast<std::size_t>(from.value()),
                            static_cast<std::size_t>(to.value()),
                            weight.value()});
    max_server = std::max({max_server, entries.back().from,
                           entries.back().to});
  }
  TrafficProfile traffic(entries.empty() ? 0 : max_server + 1);
  for (const Entry& entry : entries) {
    traffic.add(entry.from, entry.to, entry.weight);
  }
  return traffic;
}

std::string FormatTrafficProfile(const TrafficProfile& traffic) {
  std::ostringstream out;
  for (std::size_t from = 0; from < traffic.server_count(); ++from) {
    for (std::size_t to = 0; to < traffic.server_count(); ++to) {
      if (traffic.at(from, to) > 0) {
        out << from << " " << to << " " << traffic.at(from, to) << "\n";
      }
    }
  }
  return out.str();
}

namespace {
Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}
}  // namespace

Result<MomConfig> LoadMomConfig(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseMomConfig(text.value());
}

Status SaveMomConfig(const MomConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot write " + path);
  out << FormatMomConfig(config);
  return out.good() ? Status::Ok() : Status::Unavailable("write failed");
}

Result<TrafficProfile> LoadTrafficProfile(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseTrafficProfile(text.value());
}

}  // namespace cmom::domains
