#include "trace/report.h"

#include <map>
#include <ostream>

#include "base/table.h"
#include "base/units.h"
#include "trace/chrome_trace.h"

namespace swcaffe::trace {

Report Report::build(const Tracer& tracer, const std::string& category) {
  Report report;
  std::map<std::string, std::size_t> index;  // name -> row
  for (const sim::Event& s : tracer.log().events()) {
    const bool match =
        category.empty() ? s.depth == 0 : s.category == category;
    if (s.kind != sim::EventKind::kSpan || !match) continue;
    auto [it, inserted] = index.try_emplace(s.name, report.rows_.size());
    if (inserted) {
      ReportRow row;
      row.name = s.name;
      row.category = s.category;
      report.rows_.push_back(std::move(row));
    }
    ReportRow& row = report.rows_[it->second];
    ++row.count;
    row.total_s += s.duration_s();
    row.traffic.add(s.traffic);
  }
  return report;
}

double Report::total_seconds() const {
  double total = 0.0;
  for (const ReportRow& r : rows_) total += r.total_s;
  return total;
}

void Report::print(std::ostream& os) const {
  base::TablePrinter t(
      {"span", "count", "sim time", "DMA", "RLC", "net", "Gflops"});
  for (const ReportRow& r : rows_) {
    t.add_row({r.name, std::to_string(r.count),
               base::format_seconds(r.total_s),
               base::format_bytes(static_cast<double>(r.traffic.dma_bytes())),
               base::format_bytes(static_cast<double>(r.traffic.rlc_bytes)),
               base::format_bytes(static_cast<double>(r.traffic.net_bytes)),
               base::fmt(r.gflops(), 1)});
  }
  t.add_row({"TOTAL", "", base::format_seconds(total_seconds()), "", "", "",
             ""});
  t.print(os);
}

void Report::write_json(std::ostream& os) const {
  os << "{\"rows\":[";
  bool first = true;
  for (const ReportRow& r : rows_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(r.name) << "\",\"category\":\""
       << json_escape(r.category) << "\",\"count\":" << r.count
       << ",\"total_s\":" << r.total_s
       << ",\"dma_get_bytes\":" << r.traffic.dma_get_bytes
       << ",\"dma_put_bytes\":" << r.traffic.dma_put_bytes
       << ",\"rlc_bytes\":" << r.traffic.rlc_bytes
       << ",\"mpe_bytes\":" << r.traffic.mpe_bytes
       << ",\"net_bytes\":" << r.traffic.net_bytes
       << ",\"flops\":" << r.traffic.flops << ",\"gflops\":" << r.gflops()
       << "}";
  }
  os << "\n],\"total_s\":" << total_seconds() << "}\n";
}

}  // namespace swcaffe::trace
