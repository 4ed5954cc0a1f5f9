#include "src/workload/trace.h"

#include <sstream>

#include "src/workload/benchmarks.h"

namespace logfs {

std::vector<std::byte> TracePayload(size_t length, uint64_t seed) {
  std::vector<std::byte> data(length);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < length; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    data[i] = static_cast<std::byte>(x);
  }
  return data;
}

Result<std::vector<TraceOp>> ParseTrace(std::string_view text) {
  std::vector<TraceOp> ops;
  std::istringstream input{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(input, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string verb;
    if (!(tokens >> verb)) {
      continue;  // Blank line.
    }
    TraceOp op;
    auto bad = [&](const char* why) {
      return InvalidArgumentError("trace line " + std::to_string(line_no) + ": " + why);
    };
    if (verb == "mkdir" || verb == "create" || verb == "unlink" || verb == "rmdir" ||
        verb == "fsync") {
      if (!(tokens >> op.path)) {
        return bad("missing path");
      }
      op.kind = verb == "mkdir"    ? TraceOp::Kind::kMkdir
                : verb == "create" ? TraceOp::Kind::kCreate
                : verb == "unlink" ? TraceOp::Kind::kUnlink
                : verb == "rmdir"  ? TraceOp::Kind::kRmdir
                                   : TraceOp::Kind::kFsync;
    } else if (verb == "write") {
      op.kind = TraceOp::Kind::kWrite;
      if (!(tokens >> op.path >> op.offset >> op.length)) {
        return bad("write needs <path> <offset> <length>");
      }
      tokens >> op.seed;  // Optional.
    } else if (verb == "read") {
      op.kind = TraceOp::Kind::kRead;
      if (!(tokens >> op.path >> op.offset >> op.length)) {
        return bad("read needs <path> <offset> <length>");
      }
    } else if (verb == "rename" || verb == "link") {
      op.kind = verb == "rename" ? TraceOp::Kind::kRename : TraceOp::Kind::kLink;
      if (!(tokens >> op.path >> op.path2)) {
        return bad(verb == "rename" ? "rename needs <from> <to>" : "link needs <existing> <new>");
      }
    } else if (verb == "trunc") {
      op.kind = TraceOp::Kind::kTruncate;
      if (!(tokens >> op.path >> op.length)) {
        return bad("trunc needs <path> <size>");
      }
    } else if (verb == "sync") {
      op.kind = TraceOp::Kind::kSync;
    } else if (verb == "clean") {
      op.kind = TraceOp::Kind::kClean;
      if (!(tokens >> op.length)) {
        return bad("clean needs <max_victims>");
      }
    } else if (verb == "idle") {
      op.kind = TraceOp::Kind::kIdle;
      if (!(tokens >> op.seconds)) {
        return bad("idle needs <seconds>");
      }
    } else {
      return bad("unknown verb");
    }
    ops.push_back(op);
  }
  return ops;
}

std::string FormatTrace(const std::vector<TraceOp>& ops) {
  std::ostringstream os;
  for (const TraceOp& op : ops) {
    switch (op.kind) {
      case TraceOp::Kind::kMkdir:
        os << "mkdir " << op.path;
        break;
      case TraceOp::Kind::kCreate:
        os << "create " << op.path;
        break;
      case TraceOp::Kind::kWrite:
        os << "write " << op.path << " " << op.offset << " " << op.length << " " << op.seed;
        break;
      case TraceOp::Kind::kRead:
        os << "read " << op.path << " " << op.offset << " " << op.length;
        break;
      case TraceOp::Kind::kUnlink:
        os << "unlink " << op.path;
        break;
      case TraceOp::Kind::kRmdir:
        os << "rmdir " << op.path;
        break;
      case TraceOp::Kind::kRename:
        os << "rename " << op.path << " " << op.path2;
        break;
      case TraceOp::Kind::kLink:
        os << "link " << op.path << " " << op.path2;
        break;
      case TraceOp::Kind::kTruncate:
        os << "trunc " << op.path << " " << op.length;
        break;
      case TraceOp::Kind::kSync:
        os << "sync";
        break;
      case TraceOp::Kind::kFsync:
        os << "fsync " << op.path;
        break;
      case TraceOp::Kind::kIdle:
        os << "idle " << op.seconds;
        break;
      case TraceOp::Kind::kClean:
        os << "clean " << op.length;
        break;
    }
    os << "\n";
  }
  return os.str();
}

Result<TraceReplayResult> ReplayTrace(Testbed& bed, const std::vector<TraceOp>& ops) {
  TraceReplayResult result;
  const double t0 = bed.Now();
  std::vector<std::byte> buffer;
  for (const TraceOp& op : ops) {
    switch (op.kind) {
      case TraceOp::Kind::kMkdir:
        RETURN_IF_ERROR(bed.paths->MkdirAll(op.path).status());
        break;
      case TraceOp::Kind::kCreate:
        RETURN_IF_ERROR(bed.paths->CreateFile(op.path).status());
        break;
      case TraceOp::Kind::kWrite: {
        ASSIGN_OR_RETURN(InodeNum ino, bed.paths->Resolve(op.path));
        ASSIGN_OR_RETURN(uint64_t n,
                         bed.fs->Write(ino, op.offset, TracePayload(op.length, op.seed)));
        result.bytes_written += n;
        break;
      }
      case TraceOp::Kind::kRead: {
        ASSIGN_OR_RETURN(InodeNum ino, bed.paths->Resolve(op.path));
        buffer.resize(op.length);
        ASSIGN_OR_RETURN(uint64_t n, bed.fs->Read(ino, op.offset, buffer));
        result.bytes_read += n;
        break;
      }
      case TraceOp::Kind::kUnlink:
        RETURN_IF_ERROR(bed.paths->Unlink(op.path));
        break;
      case TraceOp::Kind::kRmdir:
        RETURN_IF_ERROR(bed.paths->Rmdir(op.path));
        break;
      case TraceOp::Kind::kRename:
        RETURN_IF_ERROR(bed.paths->Rename(op.path, op.path2));
        break;
      case TraceOp::Kind::kLink: {
        ASSIGN_OR_RETURN(InodeNum target, bed.paths->Resolve(op.path));
        std::string leaf;
        ASSIGN_OR_RETURN(InodeNum dir, bed.paths->ResolveParent(op.path2, &leaf));
        RETURN_IF_ERROR(bed.fs->Link(dir, leaf, target));
        break;
      }
      case TraceOp::Kind::kTruncate: {
        ASSIGN_OR_RETURN(InodeNum ino, bed.paths->Resolve(op.path));
        RETURN_IF_ERROR(bed.fs->Truncate(ino, op.length));
        break;
      }
      case TraceOp::Kind::kSync:
        RETURN_IF_ERROR(bed.fs->Sync());
        break;
      case TraceOp::Kind::kFsync: {
        ASSIGN_OR_RETURN(InodeNum ino, bed.paths->Resolve(op.path));
        RETURN_IF_ERROR(bed.fs->Fsync(ino));
        break;
      }
      case TraceOp::Kind::kIdle: {
        const double before = bed.Now();
        bed.clock->Advance(op.seconds);
        RETURN_IF_ERROR(bed.fs->Tick());
        result.idle_seconds += bed.Now() - before;
        break;
      }
      case TraceOp::Kind::kClean: {
        if (auto* lfs = dynamic_cast<LfsFileSystem*>(bed.fs.get())) {
          RETURN_IF_ERROR(lfs->CleanNow(static_cast<uint32_t>(op.length)).status());
        }
        break;
      }
    }
    ++result.operations;
  }
  result.seconds = bed.Now() - t0;
  return result;
}

namespace {
TraceOp MakeOp(TraceOp::Kind kind, std::string path = {}, uint64_t offset = 0,
               uint64_t length = 0, uint64_t seed = 0, double seconds = 0.0) {
  TraceOp op;
  op.kind = kind;
  op.path = std::move(path);
  op.offset = offset;
  op.length = length;
  op.seed = seed;
  op.seconds = seconds;
  return op;
}
}  // namespace

std::vector<TraceOp> GenerateOfficeTrace(int operations, uint64_t seed) {
  Rng rng(seed);
  std::vector<TraceOp> ops;
  std::vector<std::pair<std::string, uint64_t>> live;  // Path, size.
  uint64_t counter = 0;
  ops.push_back(MakeOp(TraceOp::Kind::kMkdir, "/work"));
  auto pick = [&](size_t count) -> size_t {
    if (rng.NextBool(0.8)) {
      return rng.NextBelow(std::max<size_t>(1, count / 5));
    }
    return rng.NextBelow(count);
  };
  for (int i = 0; i < operations; ++i) {
    const double dice = rng.NextDouble();
    if (dice < 0.5 && !live.empty()) {
      const auto& [path, size] = live[pick(live.size())];
      ops.push_back(MakeOp(TraceOp::Kind::kRead, path, 0, size));
    } else if (dice < 0.68 && !live.empty()) {
      const size_t index = pick(live.size());
      ops.push_back(MakeOp(TraceOp::Kind::kUnlink, live[index].first));
      live.erase(live.begin() + static_cast<ptrdiff_t>(index));
    } else {
      const uint64_t size = DrawOfficeFileSize(rng);
      std::string path;
      if (!live.empty() && rng.NextBool(0.35)) {
        const size_t index = pick(live.size());
        path = live[index].first;
        live[index].second = size;
        ops.push_back(MakeOp(TraceOp::Kind::kTruncate, path, 0, 0));
      } else {
        path = "/work/f" + std::to_string(counter++);
        live.emplace_back(path, size);
        ops.push_back(MakeOp(TraceOp::Kind::kCreate, path));
      }
      ops.push_back(
          MakeOp(TraceOp::Kind::kWrite, path, 0, size, static_cast<uint64_t>(i)));
    }
    if (rng.NextBool(0.02)) {
      ops.push_back(MakeOp(TraceOp::Kind::kIdle, {}, 0, 0, 0, 35.0));
    }
  }
  ops.push_back(MakeOp(TraceOp::Kind::kSync));
  return ops;
}

std::vector<TraceOp> GenerateCrashTrace(int operations, uint64_t seed) {
  Rng rng(seed);
  std::vector<TraceOp> ops;
  std::vector<std::string> live;
  uint64_t counter = 0;
  ops.push_back(MakeOp(TraceOp::Kind::kMkdir, "/c"));
  for (int i = 0; i < operations; ++i) {
    const double dice = rng.NextDouble();
    if (dice < 0.55 || live.empty()) {
      // Create a new file or overwrite an existing one, then often fsync it
      // so the log grows a fresh partial segment (a new tearing target).
      std::string path;
      if (!live.empty() && rng.NextBool(0.4)) {
        path = live[rng.NextBelow(live.size())];
      } else {
        path = "/c/f" + std::to_string(counter++);
        ops.push_back(MakeOp(TraceOp::Kind::kCreate, path));
        live.push_back(path);
      }
      const uint64_t size = 4096ull << rng.NextBelow(5);  // 4 KB .. 64 KB.
      ops.push_back(MakeOp(TraceOp::Kind::kWrite, path, 0, size,
                           seed * 1000 + static_cast<uint64_t>(i)));
      if (rng.NextBool(0.6)) {
        ops.push_back(MakeOp(TraceOp::Kind::kFsync, path));
      }
    } else if (dice < 0.75 && live.size() > 4) {
      const size_t index = rng.NextBelow(live.size());
      ops.push_back(MakeOp(TraceOp::Kind::kUnlink, live[index]));
      live.erase(live.begin() + static_cast<ptrdiff_t>(index));
    } else if (dice < 0.88) {
      ops.push_back(MakeOp(TraceOp::Kind::kSync));
    } else {
      // Deleted space only becomes reclaimable after a checkpoint, so pair
      // the cleaner invocation with one.
      ops.push_back(MakeOp(TraceOp::Kind::kSync));
      ops.push_back(MakeOp(TraceOp::Kind::kClean, {}, 0, 2));
    }
  }
  ops.push_back(MakeOp(TraceOp::Kind::kSync));
  return ops;
}

}  // namespace logfs
