#include "svc/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace agebo::svc {

void atomic_write_file(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("checkpoint: cannot open " + tmp);
    os << contents;
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("checkpoint: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " + path);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace agebo::svc
