#include "benchmarks/argparse.hpp"

#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace t1sfq::bench {

namespace {

/// std::stoull accepts a leading '-' and wraps it ("-1" -> 2^64 - 1), and a
/// narrowing cast would wrap values past T's range: both are malformed here.
template <typename T>
T to_unsigned(const std::string& text, std::size_t* used) {
  if (text.find('-') != std::string::npos) {
    throw std::invalid_argument("negative");
  }
  const unsigned long long value = std::stoull(text, used);
  if (value > std::numeric_limits<T>::max()) {
    throw std::out_of_range("too large");
  }
  return static_cast<T>(value);
}

template <typename T, typename Conv>
std::function<bool(const std::string&)> numeric(T* out, Conv conv) {
  return [out, conv](const std::string& text) {
    try {
      std::size_t used = 0;
      const T value = conv(text, &used);
      if (used != text.size()) return false;
      *out = value;
      return true;
    } catch (const std::exception&) {
      return false;
    }
  };
}

}  // namespace

ArgParser& ArgParser::add_(Option opt) {
  options_.push_back(std::move(opt));
  return *this;
}

ArgParser& ArgParser::flag(const char* name, bool* out, const char* help) {
  return add_({name, false, "", help, [out](const std::string&) {
                 *out = true;
                 return true;
               }});
}

ArgParser& ArgParser::preset(const char* name, unsigned* out, unsigned value,
                             const char* help) {
  return add_({name, false, "", help, [out, value](const std::string&) {
                 *out = value;
                 return true;
               }});
}

ArgParser& ArgParser::uint_opt(const char* name, unsigned* out, const char* metavar,
                               const char* help) {
  return add_({name, true, metavar, help, numeric(out, to_unsigned<unsigned>)});
}

ArgParser& ArgParser::u64_opt(const char* name, uint64_t* out, const char* metavar,
                              const char* help) {
  return add_({name, true, metavar, help, numeric(out, to_unsigned<uint64_t>)});
}

ArgParser& ArgParser::size_opt(const char* name, std::size_t* out, const char* metavar,
                               const char* help) {
  return add_({name, true, metavar, help, numeric(out, to_unsigned<std::size_t>)});
}

ArgParser& ArgParser::double_opt(const char* name, double* out, const char* metavar,
                                 const char* help) {
  return add_({name, true, metavar, help,
               numeric(out, [](const std::string& s, std::size_t* used) {
                 return std::stod(s, used);
               })});
}

ArgParser& ArgParser::string_opt(const char* name, std::string* out,
                                 const char* metavar, const char* help) {
  return add_({name, true, metavar, help, [out](const std::string& text) {
                 *out = text;
                 return true;
               }});
}

ArgParser& ArgParser::repeated_string(const char* name, std::vector<std::string>* out,
                                      const char* metavar, const char* help) {
  return add_({name, true, metavar, help, [out](const std::string& text) {
                 out->push_back(text);
                 return true;
               }});
}

ArgParser& ArgParser::uint_list(const char* name, std::vector<unsigned>* out,
                                const char* metavar, const char* help) {
  return add_({name, true, metavar, help, [out](const std::string& text) {
                 std::vector<unsigned> values;
                 std::stringstream ss(text);
                 std::string item;
                 while (std::getline(ss, item, ',')) {
                   try {
                     std::size_t used = 0;
                     values.push_back(to_unsigned<unsigned>(item, &used));
                     if (used != item.size()) return false;
                   } catch (const std::exception&) {
                     return false;
                   }
                 }
                 if (values.empty()) return false;
                 *out = std::move(values);
                 return true;
               }});
}

std::string ArgParser::usage() const {
  std::ostringstream ss;
  ss << "usage: " << program_;
  for (const Option& opt : options_) {
    ss << " [" << opt.name;
    if (opt.takes_value) ss << ' ' << opt.metavar;
    ss << ']';
  }
  return ss.str();
}

bool ArgParser::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage() << "\n";
      for (const Option& opt : options_) {
        std::cout << "  " << opt.name;
        if (opt.takes_value) std::cout << " <" << opt.metavar << ">";
        std::cout << "  " << opt.help << "\n";
      }
      return false;
    }
    const Option* match = nullptr;
    for (const Option& opt : options_) {
      if (arg == opt.name) {
        match = &opt;
        break;
      }
    }
    if (!match) {
      std::cerr << program_ << ": unknown option '" << arg << "'\n"
                << usage() << "\n";
      return false;
    }
    std::string value;
    if (match->takes_value) {
      if (i + 1 >= argc) {
        std::cerr << program_ << ": option '" << arg << "' needs a value\n"
                  << usage() << "\n";
        return false;
      }
      value = argv[++i];
    }
    if (!match->apply(value)) {
      std::cerr << program_ << ": malformed value '" << value << "' for '" << arg
                << "'\n"
                << usage() << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace t1sfq::bench
