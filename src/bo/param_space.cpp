#include "bo/param_space.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace agebo::bo {

ParamSpace& ParamSpace::add_real(std::string name, double lo, double hi,
                                 bool log_scale) {
  if (!(hi > lo)) throw std::invalid_argument("add_real: hi <= lo");
  if (log_scale && lo <= 0.0) {
    throw std::invalid_argument("add_real: log scale needs lo > 0");
  }
  dims_.emplace_back(RealDim{std::move(name), lo, hi, log_scale});
  return *this;
}

ParamSpace& ParamSpace::add_int(std::string name, long lo, long hi) {
  if (hi < lo) throw std::invalid_argument("add_int: hi < lo");
  dims_.emplace_back(IntDim{std::move(name), lo, hi});
  return *this;
}

ParamSpace& ParamSpace::add_categorical(std::string name,
                                        std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("add_categorical: empty");
  dims_.emplace_back(CatDim{std::move(name), std::move(values)});
  return *this;
}

const std::string& ParamSpace::name(std::size_t i) const {
  return std::visit([](const auto& d) -> const std::string& { return d.name; },
                    dims_.at(i));
}

Point ParamSpace::sample(Rng& rng) const {
  Point p(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    p[i] = std::visit(
        [&rng](const auto& d) -> double {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, RealDim>) {
            return d.log_scale ? rng.log_uniform(d.lo, d.hi)
                               : rng.uniform(d.lo, d.hi);
          } else if constexpr (std::is_same_v<T, IntDim>) {
            return static_cast<double>(rng.uniform_int(d.lo, d.hi));
          } else {
            return d.values[rng.index(d.values.size())];
          }
        },
        dims_[i]);
  }
  return p;
}

std::vector<double> ParamSpace::to_features(const Point& p) const {
  validate(p);
  std::vector<double> f(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    f[i] = std::visit(
        [&](const auto& d) -> double {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, RealDim>) {
            if (d.log_scale) {
              return (std::log(p[i]) - std::log(d.lo)) /
                     (std::log(d.hi) - std::log(d.lo));
            }
            return (p[i] - d.lo) / (d.hi - d.lo);
          } else if constexpr (std::is_same_v<T, IntDim>) {
            return d.lo == d.hi
                       ? 0.0
                       : (p[i] - static_cast<double>(d.lo)) /
                             static_cast<double>(d.hi - d.lo);
          } else {
            const auto it = std::find(d.values.begin(), d.values.end(), p[i]);
            return static_cast<double>(std::distance(d.values.begin(), it));
          }
        },
        dims_[i]);
  }
  return f;
}

void ParamSpace::validate(const Point& p) const {
  if (p.size() != dims_.size()) throw std::invalid_argument("Point: wrong length");
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const bool ok = std::visit(
        [&](const auto& d) -> bool {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, RealDim>) {
            return p[i] >= d.lo && p[i] <= d.hi;
          } else if constexpr (std::is_same_v<T, IntDim>) {
            return p[i] >= static_cast<double>(d.lo) &&
                   p[i] <= static_cast<double>(d.hi) &&
                   p[i] == std::floor(p[i]);
          } else {
            return std::find(d.values.begin(), d.values.end(), p[i]) !=
                   d.values.end();
          }
        },
        dims_[i]);
    if (!ok) {
      throw std::invalid_argument("Point: value out of range for dim " +
                                  name(i));
    }
  }
}

std::string ParamSpace::key(const Point& p) const {
  // to_chars with general format and precision 12 is printf "%.12g" by
  // definition: the text a precision-12 ostream writes, without the stream.
  std::string out;
  char buf[32];
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i) out.push_back('|');
    const auto res = std::to_chars(buf, buf + sizeof buf, p[i],
                                   std::chars_format::general, 12);
    out.append(buf, res.ptr);
  }
  return out;
}

ParamSpace ParamSpace::paper_space() {
  ParamSpace space;
  space.add_categorical("batch_size", {32, 64, 128, 256, 512, 1024});
  space.add_real("learning_rate", 0.001, 0.1, /*log_scale=*/true);
  space.add_categorical("n_processes", {1, 2, 4, 8});
  return space;
}

}  // namespace agebo::bo
