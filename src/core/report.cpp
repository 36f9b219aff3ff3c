#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace vcdl {
namespace {

// Minimal JSON emitter: numbers and strings only, keys are trusted literals.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostringstream& os) : os_(os) {
    os_ << std::setprecision(10);
  }

  void open_object() { sep(); os_ << '{'; fresh_ = true; }
  void close_object() { os_ << '}'; fresh_ = false; }
  void open_array(const char* key) { sep(); quote(key); os_ << ":["; fresh_ = true; }
  void close_array() { os_ << ']'; fresh_ = false; }

  void field(const char* key, double v) { sep(); quote(key); os_ << ':' << v; }
  void field(const char* key, std::uint64_t v) { sep(); quote(key); os_ << ':' << v; }
  void field(const char* key, const std::string& v) {
    sep();
    quote(key);
    os_ << ':';
    quote(v);
  }

 private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  void quote(const std::string& s) {
    os_ << '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') os_ << '\\';
      os_ << ch;
    }
    os_ << '"';
  }

  std::ostringstream& os_;
  bool fresh_ = true;
};

}  // namespace

std::string to_json(const TrainResult& result) {
  std::ostringstream os;
  JsonWriter w(os);
  w.open_object();
  w.field("label", result.spec.label());
  w.field("alpha", result.spec.alpha);
  w.field("store", result.spec.store);
  w.field("num_shards", result.spec.num_shards);
  w.field("seed", static_cast<std::uint64_t>(result.spec.seed));
  w.open_array("epochs");
  for (const auto& e : result.epochs) {
    w.open_object();
    w.field("epoch", e.epoch);
    w.field("alpha", e.alpha);
    w.field("hours", e.end_time / 3600.0);
    w.field("mean_acc", e.mean_subtask_acc);
    w.field("min_acc", e.min_subtask_acc);
    w.field("max_acc", e.max_subtask_acc);
    w.field("std_acc", e.std_subtask_acc);
    w.field("val_acc", e.val_acc);
    w.field("test_acc", e.test_acc);
    w.close_object();
  }
  w.close_array();
  const auto& t = result.totals;
  const auto& m = result.metrics;
  w.field("duration_hours", t.duration_s / 3600.0);
  w.field("cost_standard_usd", t.cost_standard_usd);
  w.field("cost_preemptible_usd", t.cost_preemptible_usd);
  w.field("timeouts", m.counter("scheduler.failure.timeout"));
  w.field("preemptions", m.counter("client.preemptions"));
  w.field("lost_updates", m.counter("store.lost_updates"));
  w.field("store_writes", m.counter("store.writes"));
  w.field("cache_hits", m.counter("file_server.cache_hits"));
  w.field("bytes_wire", m.counter("file_server.bytes_wire"));
  w.field("parameter_count", t.parameter_count);
  w.close_object();
  return os.str();
}

void write_epochs_csv(std::ostream& os, const TrainResult& result,
                      const std::string& series_name) {
  os << "series,epoch,alpha,hours,mean_acc,min_acc,max_acc,std_acc,val_acc,"
        "test_acc\n";
  os << std::setprecision(8);
  for (const auto& e : result.epochs) {
    os << series_name << ',' << e.epoch << ',' << e.alpha << ','
       << e.end_time / 3600.0 << ',' << e.mean_subtask_acc << ','
       << e.min_subtask_acc << ',' << e.max_subtask_acc << ','
       << e.std_subtask_acc << ',' << e.val_acc << ',' << e.test_acc << '\n';
  }
}

}  // namespace vcdl
