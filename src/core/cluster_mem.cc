#include "core/cluster_mem.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "util/logging.h"
#include "util/varint.h"

namespace ssjoin {

namespace {

/// One pInfo entry: the record, its home cluster (kNoCluster in batch
/// files when the home lies in another batch) and the clusters to join.
struct PartitionEntry {
  RecordId rid = 0;
  ClusterId home = kNoCluster;
  std::vector<ClusterId> joins;
};

void SerializeEntry(const PartitionEntry& entry, std::string* out) {
  PutVarint32(out, entry.rid);
  PutVarint32(out, entry.home == kNoCluster ? 0 : entry.home + 1);
  PutVarint32(out, static_cast<uint32_t>(entry.joins.size()));
  ClusterId prev = 0;
  for (ClusterId c : entry.joins) {
    PutVarint32(out, c - prev);  // joins are ascending
    prev = c;
  }
}

bool DeserializeEntry(const std::string& data, size_t* offset,
                      PartitionEntry* entry) {
  uint32_t home_plus1 = 0;
  uint32_t count = 0;
  if (!GetVarint32(data, offset, &entry->rid)) return false;
  if (!GetVarint32(data, offset, &home_plus1)) return false;
  if (!GetVarint32(data, offset, &count)) return false;
  entry->home = home_plus1 == 0 ? kNoCluster : home_plus1 - 1;
  entry->joins.assign(count, 0);
  ClusterId prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    if (!GetVarint32(data, offset, &delta)) return false;
    prev += delta;
    entry->joins[i] = prev;
  }
  return true;
}

/// Append-only spill file (the paper's pInfo): sequential writes in phase
/// 1, sequential scan afterwards. The file is removed when the SpillFile
/// goes out of scope, including every early-error return.
class SpillFile {
 public:
  explicit SpillFile(std::string path) : path_(std::move(path)) {}

  SpillFile(SpillFile&& other) noexcept
      : path_(std::move(other.path_)),
        out_(std::move(other.out_)),
        buffer_(std::move(other.buffer_)),
        owns_file_(other.owns_file_) {
    other.owns_file_ = false;
  }
  SpillFile& operator=(SpillFile&&) = delete;

  ~SpillFile() {
    if (owns_file_) {
      out_.close();
      std::remove(path_.c_str());
    }
  }

  Status OpenForWrite() {
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_) return Status::IOError("cannot open spill file: " + path_);
    return Status::OK();
  }

  void Append(const PartitionEntry& entry) {
    buffer_.clear();
    SerializeEntry(entry, &buffer_);
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  }

  Status CloseWrite() {
    out_.close();
    if (out_.fail()) return Status::IOError("short write: " + path_);
    return Status::OK();
  }

  /// Reads the whole file back; invokes `visit` per entry in order.
  Status Scan(const std::function<void(const PartitionEntry&)>& visit) const {
    std::ifstream in(path_, std::ios::binary);
    if (!in) return Status::IOError("cannot reopen spill file: " + path_);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t offset = 0;
    PartitionEntry entry;
    while (offset < data.size()) {
      if (!DeserializeEntry(data, &offset, &entry)) {
        return Status::IOError("corrupt spill entry in " + path_);
      }
      visit(entry);
    }
    return Status::OK();
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::string buffer_;
  bool owns_file_ = true;
};

std::string UniqueTempPath(const std::string& dir, const std::string& stem) {
  // The pid keeps concurrent processes sharing a temp_dir (e.g. test
  // binaries under `ctest -j`) from clobbering each other's spill files.
  static std::atomic<uint64_t> counter{0};
  uint64_t n = counter.fetch_add(1);
  return dir + "/" + stem + "." + std::to_string(::getpid()) + "." +
         std::to_string(n) + ".tmp";
}

}  // namespace

Result<JoinStats> ClusterMemJoin(const RecordSet& records,
                                 const Predicate& pred,
                                 const ClusterMemOptions& options,
                                 const PairSink& sink) {
  if (options.memory_budget_postings == 0) {
    return Status::InvalidArgument(
        "ClusterMem requires memory_budget_postings > 0");
  }
  JoinStats stats;
  const uint64_t n = records.size();
  const uint64_t total_postings =
      std::max<uint64_t>(1, records.total_token_occurrences());
  const uint64_t budget = options.memory_budget_postings;

  // Section 4.1's estimates: Ng = N * M / W clusters, NR records per
  // cluster sized so that Ng clusters can absorb all N records (2x slack).
  ClusterSetOptions cluster_options = options.cluster;
  if (cluster_options.max_clusters == 0) {
    uint64_t ng = n * budget / total_postings;
    cluster_options.max_clusters = static_cast<uint32_t>(
        std::clamp<uint64_t>(ng, 1, std::max<uint64_t>(n, 1)));
  }
  if (cluster_options.max_cluster_size == 0 && n > 0) {
    uint64_t per_cluster =
        (n + cluster_options.max_clusters - 1) / cluster_options.max_clusters;
    cluster_options.max_cluster_size =
        static_cast<uint32_t>(std::max<uint64_t>(2 * per_cluster, 2));
  }

  // ---- Phase 1: data partitioning -------------------------------------
  // Probe-Cluster's ClusterSet, except that the budget stops cluster
  // creation: once the cluster-level index holds M postings (or Ng
  // clusters exist), a record with no similar J(r) cluster is forced
  // into an existing one (see ClusterSet::ProbeAndAssign).
  ClusterSet cluster_set(pred, cluster_options, records.vocabulary_size(),
                         /*max_index_postings=*/budget);
  SpillFile pinfo(UniqueTempPath(options.temp_dir, "ssjoin_pinfo"));
  SSJOIN_RETURN_IF_ERROR(pinfo.OpenForWrite());
  PartitionEntry entry;
  for (RecordId id : records.IdsByDecreasingNorm()) {
    ClusterSet::ProbeResult probe =
        cluster_set.ProbeAndAssign(records.record(id), &stats.merge);
    entry.rid = id;
    entry.home = probe.home;
    entry.joins.assign(probe.joins.begin(), probe.joins.end());
    pinfo.Append(entry);
  }
  SSJOIN_RETURN_IF_ERROR(pinfo.CloseWrite());
  stats.index_postings = cluster_set.index_postings();

  // ---- Phase 2: finer-grained joins ------------------------------------
  // Pack clusters into batches whose member-level indexes fit in M.
  const size_t num_clusters = cluster_set.num_clusters();
  // Batches are runs of consecutive cluster ids: batch b holds clusters
  // [batch_begin[b], batch_begin[b + 1]).
  std::vector<uint32_t> batch_of(num_clusters, 0);
  std::vector<ClusterId> batch_begin;
  {
    uint64_t batch_postings = 0;
    for (ClusterId c = 0; c < num_clusters; ++c) {
      uint64_t need = cluster_set.cluster_member_postings(c);
      if (batch_begin.empty() ||
          (batch_postings > 0 && batch_postings + need > budget)) {
        batch_begin.push_back(c);  // start a new batch (a lone oversized
                                   // cluster still gets a batch of its own)
        batch_postings = 0;
      }
      batch_of[c] = static_cast<uint32_t>(batch_begin.size() - 1);
      batch_postings += need;
    }
  }
  const uint32_t num_batches = static_cast<uint32_t>(batch_begin.size());
  batch_begin.push_back(static_cast<ClusterId>(num_clusters));

  // Split pInfo into per-batch spill files (each entry lands in every
  // batch it touches, with its join list restricted to that batch).
  std::vector<SpillFile> batch_files;
  batch_files.reserve(num_batches);
  for (uint32_t b = 0; b < num_batches; ++b) {
    batch_files.emplace_back(
        UniqueTempPath(options.temp_dir, "ssjoin_batch"));
    SSJOIN_RETURN_IF_ERROR(batch_files.back().OpenForWrite());
  }
  Status split_status = pinfo.Scan([&](const PartitionEntry& entry) {
    // Destination batches, ascending and unique.
    std::vector<uint32_t> destinations;
    for (ClusterId c : entry.joins) destinations.push_back(batch_of[c]);
    if (entry.home != kNoCluster) destinations.push_back(batch_of[entry.home]);
    std::sort(destinations.begin(), destinations.end());
    destinations.erase(
        std::unique(destinations.begin(), destinations.end()),
        destinations.end());
    for (uint32_t b : destinations) {
      PartitionEntry sub;
      sub.rid = entry.rid;
      sub.home = (entry.home != kNoCluster && batch_of[entry.home] == b)
                     ? entry.home
                     : kNoCluster;
      for (ClusterId c : entry.joins) {
        if (batch_of[c] == b) sub.joins.push_back(c);
      }
      batch_files[b].Append(sub);
    }
  });
  SSJOIN_RETURN_IF_ERROR(split_status);
  for (SpillFile& f : batch_files) SSJOIN_RETURN_IF_ERROR(f.CloseWrite());

  // Process each batch: build member indexes in arrival order while
  // probing, exactly like the online Probe-Cluster inner loop.
  uint64_t peak_batch_postings = 0;
  probe_internal::ProbeScratch scratch;  // reused by every member probe
  for (uint32_t b = 0; b < num_batches; ++b) {
    // The batch's member indexes, by cluster id - batch_begin[b]; freed
    // when the batch ends, so one batch's indexes are resident at a time.
    const ClusterId base = batch_begin[b];
    std::vector<MemberIndex> member_index(batch_begin[b + 1] - base);
    uint64_t batch_postings = 0;
    Status scan_status = batch_files[b].Scan([&](const PartitionEntry& e) {
      const RecordView record = records.record(e.rid);
      for (ClusterId c : e.joins) {
        const MemberIndex& index = member_index[c - base];
        if (index.empty()) continue;  // no members yet
        ProbeMemberIndex(records, pred, record, e.rid, index, &scratch,
                         &stats, sink);
      }
      if (e.home != kNoCluster) {
        member_index[e.home - base].Insert(e.rid, record);
        batch_postings += record.size();
      }
    });
    SSJOIN_RETURN_IF_ERROR(scan_status);
    peak_batch_postings = std::max(peak_batch_postings, batch_postings);
  }
  stats.index_postings = std::max(stats.index_postings, peak_batch_postings);
  return stats;
}

}  // namespace ssjoin
