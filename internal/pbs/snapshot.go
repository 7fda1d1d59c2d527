package pbs

import (
	"fmt"
	"hash/crc32"
	"sort"
	"unsafe"

	"joshua/internal/codec"
)

// snapshotVersion guards against decoding snapshots from a different
// build of the wire format. Version 4 added the scheduling-pipeline
// sections (logical clock, per-node allocations, fairshare usage,
// backfill reservation, per-job resources) and a trailing CRC; version
// 5 the mutation epoch (Server.Version), so that a restored replica
// continues it instead of starting over.
const snapshotVersion = 5

// Snapshot serializes the complete server state. JOSHUA transfers it
// to joining head nodes, and the determinism suites compare it
// byte-for-byte across replicas — everything the scheduling pipeline
// reads must be in here.
//
// The paper's prototype transferred state by "configuration file
// modification and user command (message) replay", which could not
// preserve held jobs; serializing the queue directly is the "unified
// and location independent ... state description" its future-work
// section calls for, and lifts the hold/release restriction.
//
// The body is followed by its CRC-32 (IEEE) so a truncated or
// bit-flipped transfer fails loudly in Restore instead of silently
// seeding a divergent replica.
func (s *Server) Snapshot() []byte {
	return s.captureImage().encode()
}

// Fork captures a point-in-time image of the server state under the
// read lock — deep job clones and map copies, but no serialization —
// and returns a closure that encodes it later, off whatever goroutine
// drives the replica. The engine's background checkpointer and the
// off-loop state-transfer donor path use this so that serializing a
// large job table never stalls the apply pipeline. The closure
// produces exactly the bytes Snapshot would have returned at capture
// time.
func (s *Server) Fork() func() []byte {
	img := s.captureImage()
	return img.encode
}

// serverImage is a point-in-time deep copy of everything Snapshot
// serializes, decoupled from s.mu so encoding can happen later.
type serverImage struct {
	name      string
	epoch     uint64 // Server.version
	nextSeq   uint64
	ltick     uint64
	jobs      []Job // deep clones, sorted by Seq
	queue     []JobID
	completed []JobID
	// allocCount is len(s.alloc) at capture; alloc holds the entries
	// emitted in config-node order (the two can differ only if alloc
	// ever held a node outside the config, which the encoding has
	// always tolerated by writing the count and skipping the entry).
	allocCount   int
	alloc        []allocImage
	running      int
	sigTotal     int
	sigs         []sigImage // jobs order, present entries only
	offlineTotal int
	offline      []string // config-node order
	fairTick     uint64
	fairUsers    []string
	fairVals     []uint64
	resv         *reservation
}

type allocImage struct {
	node string
	cpus int
	mem  int64
	jobs []JobID
}

type sigImage struct {
	id    JobID
	count int
}

func (s *Server) captureImage() *serverImage {
	s.mu.RLock()
	defer s.mu.RUnlock()

	img := &serverImage{
		name:         s.cfg.ServerName,
		epoch:        s.version.Load(),
		nextSeq:      s.nextSeq,
		ltick:        s.ltick,
		queue:        append([]JobID(nil), s.queue...),
		completed:    append([]JobID(nil), s.completed...),
		allocCount:   len(s.alloc),
		running:      s.running,
		sigTotal:     len(s.sigCount),
		offlineTotal: len(s.offline),
		fairTick:     s.fairTick,
	}

	// A value copy shares the job's Nodes, since the server replaces a
	// job's node list and never writes into one (see Job.Nodes), and
	// its cached encoding, which the image splices.
	img.jobs = make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		img.jobs = append(img.jobs, *j)
	}
	sort.Slice(img.jobs, func(i, k int) bool { return img.jobs[i].Seq < img.jobs[k].Seq })

	img.alloc = make([]allocImage, 0, len(s.alloc))
	for _, n := range s.cfg.Nodes {
		a, ok := s.alloc[n]
		if !ok {
			continue
		}
		img.alloc = append(img.alloc, allocImage{
			node: n,
			cpus: a.cpus,
			mem:  a.mem,
			jobs: append([]JobID(nil), a.jobs...),
		})
	}

	for i := range img.jobs {
		if c, ok := s.sigCount[img.jobs[i].ID]; ok {
			img.sigs = append(img.sigs, sigImage{id: img.jobs[i].ID, count: c})
		}
	}

	for _, n := range s.cfg.Nodes {
		if s.offline[n] {
			img.offline = append(img.offline, n)
		}
	}

	img.fairUsers = make([]string, 0, len(s.fairUsage))
	for u := range s.fairUsage {
		img.fairUsers = append(img.fairUsers, u)
	}
	sort.Strings(img.fairUsers)
	img.fairVals = make([]uint64, len(img.fairUsers))
	for i, u := range img.fairUsers {
		img.fairVals[i] = s.fairUsage[u]
	}

	if s.resv != nil {
		img.resv = &reservation{
			Job:    s.resv.Job,
			Shadow: s.resv.Shadow,
			Nodes:  append([]string(nil), s.resv.Nodes...),
		}
	}
	return img
}

func (img *serverImage) encode() []byte {
	e := codec.NewEncoder(256)
	e.PutUint(snapshotVersion)
	e.PutString(img.name)
	e.PutUint(img.epoch)
	e.PutUint(img.nextSeq)
	e.PutUint(img.ltick)

	e.PutUint(uint64(len(img.jobs)))
	for i := range img.jobs {
		img.jobs[i].appendTo(e)
	}

	e.PutUint(uint64(len(img.queue)))
	for _, id := range img.queue {
		e.PutString(string(id))
	}
	e.PutUint(uint64(len(img.completed)))
	for _, id := range img.completed {
		e.PutString(string(id))
	}

	// Deterministic encoding: nodes were captured in config order.
	e.PutUint(uint64(img.allocCount))
	for _, a := range img.alloc {
		e.PutString(a.node)
		e.PutInt(int64(a.cpus))
		e.PutInt(a.mem)
		e.PutUint(uint64(len(a.jobs)))
		for _, id := range a.jobs {
			e.PutString(string(id))
		}
	}
	e.PutInt(int64(img.running))

	e.PutUint(uint64(img.sigTotal))
	for _, sg := range img.sigs {
		e.PutString(string(sg.id))
		e.PutUint(uint64(sg.count))
	}

	e.PutUint(uint64(img.offlineTotal))
	for _, n := range img.offline {
		e.PutString(n)
	}

	// Fairshare accumulators, in sorted user order.
	e.PutUint(img.fairTick)
	e.PutUint(uint64(len(img.fairUsers)))
	for i, u := range img.fairUsers {
		e.PutString(u)
		e.PutUint(img.fairVals[i])
	}

	// Backfill reservation.
	e.PutBool(img.resv != nil)
	if img.resv != nil {
		e.PutString(string(img.resv.Job))
		e.PutInt(img.resv.Shadow)
		e.PutStringSlice(img.resv.Nodes)
	}

	body := e.Bytes()
	e.PutUint(uint64(crc32.ChecksumIEEE(body)))
	return e.Bytes()
}

// Restore replaces the server state with a snapshot taken by
// Snapshot on a replica with the same configuration. Pending actions
// are discarded: the snapshot source already performed them. The
// mutation epoch continues from the snapshot's, so replicas at equal
// state report equal versions however they got there (applying,
// recovering from a checkpoint or by state transfer), and both listing
// caches are dropped: an entry built before the restore may carry the
// restored version number for a different state.
//
// A restored job costs what the table keeps of it: the Job and one
// string, the copied bytes of its encoding in b, which is also its
// cached encoding (see Job.encLen) and holds all of its text. The queue,
// the completed list, the per-node allocations, the signal counts and
// the reservation name their jobs by the restored Job's own ID.
func (s *Server) Restore(b []byte) error {
	d := codec.NewDecoder(b)
	// Views into b live only until useText points a job's strings
	// into its copied encoding below; the other fields decode with
	// String, which always copies.
	d.ViewStrings()
	if v := d.Uint(); v != snapshotVersion {
		if d.Err() == nil {
			return fmt.Errorf("pbs: snapshot version %d, want %d", v, snapshotVersion)
		}
	}
	name := d.String()
	epoch := d.Uint()
	nextSeq := d.Uint()
	ltick := d.Uint()

	n := d.Uint()
	if d.Err() != nil || n > uint64(d.Remaining()) {
		return fmt.Errorf("pbs: corrupt snapshot: %v", d.Err())
	}
	jobs := make(map[JobID]*Job, n)
	// Jobs are encoded in Seq order, which is the queue's order. The
	// queue holds every job not completed, so it is rebuilt from them,
	// and the eligible index, derived state the snapshot does not
	// carry, from the StateQueued ones.
	queue := make([]JobID, 0, n)
	var eligible []*Job
	for i := uint64(0); i < n; i++ {
		j := new(Job)
		at := len(b) - d.Remaining()
		DecodeJobInto(d, j)
		if d.Err() != nil {
			break
		}
		// useText places the job's strings by its fields' encoded
		// sizes, so the bytes must be the encoding putJob writes.
		end := len(b) - d.Remaining()
		if j.encodedSize() != end-at {
			return fmt.Errorf("pbs: corrupt snapshot: job %d takes %d bytes, its fields encode in %d", i, end-at, j.encodedSize())
		}
		j.useText(string(b[at:end]))
		jobs[j.ID] = j
		if j.State != StateCompleted {
			queue = append(queue, j.ID)
		}
		if j.State == StateQueued {
			eligible = append(eligible, j)
		}
	}
	// The encoded queue is only checked against the rebuilt one.
	if c := d.Uint(); c != uint64(len(queue)) && d.Err() == nil {
		return fmt.Errorf("pbs: corrupt snapshot: queue of %d jobs, %d unfinished", c, len(queue))
	}
	for _, id := range queue {
		if b := d.Bytes(); string(b) != string(id) && d.Err() == nil {
			return fmt.Errorf("pbs: corrupt snapshot: queue names %q where job %s is", b, id)
		}
	}

	// readID returns the restored job's own ID for the next encoded
	// one; only an ID the table lacks is copied.
	readID := func() JobID {
		id := d.Bytes()
		if j, ok := jobs[JobID(id)]; ok {
			return j.ID
		}
		return JobID(id)
	}
	readIDs := func() []JobID {
		c := d.Uint()
		if d.Err() != nil || c > uint64(d.Remaining())+1 {
			return nil
		}
		ids := make([]JobID, 0, c)
		for i := uint64(0); i < c; i++ {
			ids = append(ids, readID())
		}
		return ids
	}
	completed := readIDs()

	an := d.Uint()
	alloc := make(map[string]*nodeAlloc, an)
	for i := uint64(0); i < an && d.Err() == nil; i++ {
		node := d.String()
		a := &nodeAlloc{cpus: int(d.Int()), mem: d.Int()}
		jc := d.Uint()
		for k := uint64(0); k < jc && d.Err() == nil; k++ {
			a.jobs = append(a.jobs, readID())
		}
		alloc[node] = a
	}
	running := int(d.Int())

	sn := d.Uint()
	sig := make(map[JobID]int, sn)
	for i := uint64(0); i < sn && d.Err() == nil; i++ {
		id := readID()
		sig[id] = int(d.Uint())
	}

	on := d.Uint()
	offline := make(map[string]bool, on)
	for i := uint64(0); i < on && d.Err() == nil; i++ {
		offline[d.String()] = true
	}

	fairTick := d.Uint()
	fn := d.Uint()
	fair := make(map[string]uint64, fn)
	for i := uint64(0); i < fn && d.Err() == nil; i++ {
		user := d.String()
		fair[user] = d.Uint()
	}

	var resv *reservation
	if d.Bool() {
		resv = &reservation{Job: readID(), Shadow: d.Int()}
		for k, c := uint64(0), d.Uint(); k < c && d.Err() == nil; k++ {
			resv.Nodes = append(resv.Nodes, d.String())
		}
	}

	// Everything before the trailing CRC is the checksummed body.
	body := len(b) - d.Remaining()
	crc := uint32(d.Uint())
	if err := d.Finish(); err != nil {
		return fmt.Errorf("pbs: corrupt snapshot: %w", err)
	}
	if got := crc32.ChecksumIEEE(b[:body]); got != crc {
		return fmt.Errorf("pbs: snapshot checksum mismatch: %08x != %08x", got, crc)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if name != s.cfg.ServerName {
		return fmt.Errorf("pbs: snapshot from server %q, this server is %q", name, s.cfg.ServerName)
	}
	s.nextSeq = nextSeq
	s.ltick = ltick
	s.jobs = jobs
	s.queue = queue
	s.eligible = eligible
	s.completed = completed
	s.alloc = alloc
	s.running = running
	s.sigCount = sig
	s.offline = offline
	s.fairTick = fairTick
	s.fairUsage = fair
	s.resv = resv
	s.actions = nil
	// Caches first, then the version: a reader loads the version
	// before its cache entry (cachedListing), so one that sees the
	// restored version finds the caches already empty.
	s.jobsCache.Store(nil)
	s.listing.Store(nil)
	s.version.Store(epoch)
	return nil
}

// putJob appends j's encoding, field by field. It is the encoding's
// one definition: a job's cached encoding is putJob's output.
func putJob(e *codec.Encoder, j *Job) {
	e.PutString(string(j.ID))
	putJobFields(e, j)
}

// putJobFields appends j's encoding after its ID.
func putJobFields(e *codec.Encoder, j *Job) {
	e.PutUint(j.Seq)
	e.PutString(j.Name)
	e.PutString(j.Owner)
	e.PutString(j.Script)
	e.PutUint(uint64(j.NodeCount))
	e.PutDuration(j.WallTime)
	e.PutUint(uint64(j.State))
	e.PutStringSlice(j.Nodes)
	e.PutInt(int64(j.ExitCode))
	e.PutString(j.Output)
	e.PutTime(j.SubmittedAt)
	e.PutTime(j.StartedAt)
	e.PutTime(j.CompletedAt)
	e.PutInt(int64(j.Res.NCPUs))
	e.PutInt(j.Res.Mem)
	e.PutInt(int64(j.Priority))
	e.PutInt(int64(j.ArrayIdx))
}

// encodedSize is the number of bytes putJob writes for j.
func (j *Job) encodedSize() int {
	if j.encLen != 0 {
		return j.encLen
	}
	n := codec.SizeString(string(j.ID)) + codec.SizeUint(j.Seq) +
		codec.SizeString(j.Name) + codec.SizeString(j.Owner) + codec.SizeString(j.Script) +
		codec.SizeUint(uint64(j.NodeCount)) + codec.SizeInt(int64(j.WallTime)) +
		codec.SizeUint(uint64(j.State)) + codec.SizeUint(uint64(len(j.Nodes)))
	for _, node := range j.Nodes {
		n += codec.SizeString(node)
	}
	return n + codec.SizeInt(int64(j.ExitCode)) + codec.SizeString(j.Output) +
		codec.SizeTime(j.SubmittedAt) + codec.SizeTime(j.StartedAt) + codec.SizeTime(j.CompletedAt) +
		codec.SizeInt(int64(j.Res.NCPUs)) + codec.SizeInt(j.Res.Mem) +
		codec.SizeInt(int64(j.Priority)) + codec.SizeInt(int64(j.ArrayIdx))
}

// appendTo appends j's encoding: its cached bytes while it has them,
// and otherwise field by field. Only the server's own encoders use it;
// EncodeJob, which callers reach with copies they may have edited,
// always encodes fields.
func (j *Job) appendTo(e *codec.Encoder) {
	if enc := j.cachedEnc(); enc != "" {
		e.PutRawString(enc)
		return
	}
	putJob(e, j)
}

// useText makes enc, the encoding putJob writes for j's current
// fields, the job's cached encoding and its one string of text: ID,
// Name, Owner, Script, each node of Nodes and Output become the
// substrings of enc that encode them. Their places follow from the
// fields' encoded sizes, so nothing is decoded or allocated. A job
// without an ID caches nothing (see cachedEnc).
func (j *Job) useText(enc string) {
	at := 0
	cut := func(s string) string {
		at += codec.SizeUint(uint64(len(s)))
		at += len(s)
		return enc[at-len(s) : at]
	}
	j.ID = JobID(cut(string(j.ID)))
	at += codec.SizeUint(j.Seq)
	j.Name = cut(j.Name)
	j.Owner = cut(j.Owner)
	j.Script = cut(j.Script)
	at += codec.SizeUint(uint64(j.NodeCount)) + codec.SizeInt(int64(j.WallTime)) +
		codec.SizeUint(uint64(j.State)) + codec.SizeUint(uint64(len(j.Nodes)))
	for i, node := range j.Nodes {
		j.Nodes[i] = cut(node)
	}
	at += codec.SizeInt(int64(j.ExitCode))
	j.Output = cut(j.Output)
	if j.ID != "" {
		j.encLen = len(enc)
	}
}

// cachedEnc returns j's cached encoding, or "" when it has none. The
// job keeps only its length: the encoding begins with ID's length
// prefix, so it is the encLen bytes from that prefix on, in the string
// useText cut ID from, which ID keeps alive. One string header less
// keeps a Job in the 256-byte size class.
func (j *Job) cachedEnc() string {
	if j.encLen == 0 {
		return ""
	}
	id := unsafe.Pointer(unsafe.StringData(string(j.ID)))
	start := unsafe.Add(id, -codec.SizeUint(uint64(len(j.ID))))
	return unsafe.String((*byte)(start), j.encLen)
}

// EncodeJob appends a Job to an encoder; the JOSHUA command protocol
// carries jobs in responses.
func EncodeJob(e *codec.Encoder, j Job) { putJob(e, &j) }

// DecodeJob reads a Job written by EncodeJob.
func DecodeJob(d *codec.Decoder) Job {
	var j Job
	DecodeJobInto(d, &j)
	return j
}

// DecodeJobInto reads a Job written by EncodeJob into *j, overwriting
// every field. Its strings are views into the input after
// codec.Decoder.ViewStrings, so a caller decoding a whole listing into
// one []Job pays no per-job allocation (Restore then points them into
// the job's copied encoding with useText), and fresh strings
// otherwise.
func DecodeJobInto(d *codec.Decoder, j *Job) {
	*j = Job{
		ID:        JobID(d.Text()),
		Seq:       d.Uint(),
		Name:      d.Text(),
		Owner:     d.Text(),
		Script:    d.Text(),
		NodeCount: int(d.Uint()),
		WallTime:  d.Duration(),
		State:     JobState(d.Uint()),
	}
	j.Nodes = d.StringSlice()
	j.ExitCode = int(d.Int())
	j.Output = d.Text()
	j.SubmittedAt = d.Time()
	j.StartedAt = d.Time()
	j.CompletedAt = d.Time()
	j.Res.NCPUs = int(d.Int())
	j.Res.Mem = d.Int()
	j.Priority = int(d.Int())
	j.ArrayIdx = int(d.Int())
}
