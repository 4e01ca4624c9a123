// Package hdfs models the distributed filesystem under the paper's virtual
// Hadoop clusters (§II): files split into replicated blocks on datanodes,
// written through pipelined replication. Reads are the mapreduce package's
// job: MapSplits hands it each block's replica locations, and its
// locality-aware scheduler fetches every split from the closest replica.
package hdfs

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/mapreduce"
	"repro/internal/simnet"
)

// Config tunes the filesystem.
type Config struct {
	// BlockSize in bytes. Zero means 64 MiB (the Hadoop 0.20-era default).
	BlockSize int64
	// Replication factor. Zero means 3.
	Replication int
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 64 << 20
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	return c
}

// Block is one replicated chunk of a file.
type Block struct {
	ID       string
	Bytes    int64
	Replicas []*simnet.Node // datanodes currently holding the block
}

// File is a named sequence of blocks.
type File struct {
	Name   string
	Bytes  int64
	Blocks []*Block
}

// FileSystem is the namenode: namespace plus block placement.
type FileSystem struct {
	cfg   Config
	net   *simnet.Network
	nodes []*simnet.Node
	files map[string]*File
	rng   *rand.Rand
	seq   int

	// ReplicationBytes counts bytes moved by write pipelines and
	// re-replication (cluster-internal overhead traffic).
	ReplicationBytes int64
}

// New creates a filesystem over the given datanodes.
func New(net *simnet.Network, cfg Config, datanodes []*simnet.Node, seed int64) *FileSystem {
	if len(datanodes) == 0 {
		panic("hdfs: need at least one datanode")
	}
	fs := &FileSystem{
		cfg:   cfg.withDefaults(),
		net:   net,
		nodes: append([]*simnet.Node(nil), datanodes...),
		files: make(map[string]*File),
		rng:   rand.New(rand.NewSource(seed)),
	}
	sort.Slice(fs.nodes, func(i, j int) bool { return fs.nodes[i].ID < fs.nodes[j].ID })
	return fs
}

// placeReplicas picks r distinct datanodes for a new block: first replica
// on the writer when it is a datanode (HDFS's write-locality), the rest
// spread over remaining nodes, preferring the writer's site for the second
// replica (rack-awareness analogue: site == rack).
func (fs *FileSystem) placeReplicas(writer *simnet.Node, r int) []*simnet.Node {
	if r > len(fs.nodes) {
		r = len(fs.nodes)
	}
	var out []*simnet.Node
	used := make(map[*simnet.Node]bool)
	for _, n := range fs.nodes {
		if n == writer {
			out = append(out, n)
			used[n] = true
			break
		}
	}
	// Same-site candidates next, then everything else, shuffled
	// deterministically.
	var sameSite, other []*simnet.Node
	for _, n := range fs.nodes {
		if used[n] {
			continue
		}
		if writer != nil && n.Site == writer.Site {
			sameSite = append(sameSite, n)
		} else {
			other = append(other, n)
		}
	}
	fs.rng.Shuffle(len(sameSite), func(i, j int) { sameSite[i], sameSite[j] = sameSite[j], sameSite[i] })
	fs.rng.Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
	for _, n := range append(sameSite, other...) {
		if len(out) >= r {
			break
		}
		out = append(out, n)
	}
	return out
}

// Write creates a file of the given size from writer, streaming each block
// through a replication pipeline (writer -> replica1 -> replica2 ...).
// onDone fires when every block is fully replicated.
func (fs *FileSystem) Write(name string, bytes int64, writer *simnet.Node, onDone func(*File, error)) {
	if _, dup := fs.files[name]; dup {
		fs.net.K.Schedule(0, func() { onDone(nil, fmt.Errorf("hdfs: file %q exists", name)) })
		return
	}
	f := &File{Name: name, Bytes: bytes}
	nBlocks := int((bytes + fs.cfg.BlockSize - 1) / fs.cfg.BlockSize)
	if nBlocks == 0 {
		nBlocks = 1
	}
	pending := 0
	finished := false
	complete := func() {
		if pending == 0 && !finished {
			finished = true
			fs.files[name] = f
			onDone(f, nil)
		}
	}
	for i := 0; i < nBlocks; i++ {
		fs.seq++
		sz := fs.cfg.BlockSize
		if i == nBlocks-1 {
			sz = bytes - int64(i)*fs.cfg.BlockSize
			if sz <= 0 {
				sz = fs.cfg.BlockSize
			}
		}
		b := &Block{ID: fmt.Sprintf("blk-%06d", fs.seq), Bytes: sz,
			Replicas: fs.placeReplicas(writer, fs.cfg.Replication)}
		f.Blocks = append(f.Blocks, b)
		pending++
		fs.pipeline(writer, b.Replicas, sz, func() {
			pending--
			complete()
		})
	}
	fs.net.K.Schedule(0, complete)
}

// pipeline streams a block hop by hop through the replica chain.
func (fs *FileSystem) pipeline(src *simnet.Node, chain []*simnet.Node, bytes int64, onDone func()) {
	hop := 0
	prev := src
	var next func()
	next = func() {
		if hop >= len(chain) {
			onDone()
			return
		}
		dst := chain[hop]
		hop++
		if dst == prev || prev == nil {
			prev = dst
			next() // local write, no network
			return
		}
		fs.ReplicationBytes += bytes
		from := prev
		prev = dst
		fs.net.StartFlow(from, dst, bytes, "hdfs-replicate", func() { next() })
	}
	fs.net.K.Schedule(0, next) // keep completion asynchronous even for all-local chains
}

// MapSplits converts a file's blocks into MapReduce input splits carrying
// replica locations, enabling the framework's locality-aware scheduling.
func MapSplits(f *File) []mapreduce.Split {
	out := make([]mapreduce.Split, len(f.Blocks))
	for i, b := range f.Blocks {
		out[i] = mapreduce.Split{
			Bytes:     b.Bytes,
			Preferred: append([]*simnet.Node(nil), b.Replicas...),
		}
	}
	return out
}
