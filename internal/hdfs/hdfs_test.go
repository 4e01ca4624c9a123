package hdfs

import (
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sim"
	"repro/internal/simnet"
)

const MB = 1 << 20

func testFS(t testing.TB, nodes int, rep int) (*sim.Kernel, *simnet.Network, *FileSystem, []*simnet.Node) {
	k := sim.NewKernel(1)
	net := simnet.New(k)
	s := net.AddSite("cloud", 125*MB, 125*MB)
	dns := make([]*simnet.Node, nodes)
	for i := range dns {
		dns[i] = s.AddNode("dn"+string(rune('a'+i)), 125*MB)
	}
	fs := New(net, Config{BlockSize: 8 * MB, Replication: rep}, dns, 7)
	return k, net, fs, dns
}

func TestWriteCreatesReplicatedBlocks(t *testing.T) {
	k, _, fs, dns := testFS(t, 5, 3)
	var f *File
	fs.Write("input", 20*MB, dns[0], func(file *File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		f = file
	})
	k.Run()
	if f == nil {
		t.Fatal("write never completed")
	}
	// 20 MB / 8 MB blocks = 3 blocks (8+8+4).
	if len(f.Blocks) != 3 {
		t.Fatalf("blocks %d", len(f.Blocks))
	}
	for _, b := range f.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %s has %d replicas", b.ID, len(b.Replicas))
		}
		// Writer locality: first replica on the writer.
		if b.Replicas[0] != dns[0] {
			t.Fatalf("block %s first replica not on writer", b.ID)
		}
		seen := map[*simnet.Node]bool{}
		for _, r := range b.Replicas {
			if seen[r] {
				t.Fatal("duplicate replica placement")
			}
			seen[r] = true
		}
	}
	// Pipeline moved (r-1) copies of every block over the network.
	if fs.ReplicationBytes != 2*20*MB {
		t.Fatalf("replication bytes %d", fs.ReplicationBytes)
	}
}

func TestWriteDuplicateFails(t *testing.T) {
	k, _, fs, dns := testFS(t, 3, 2)
	fs.Write("x", MB, dns[0], func(_ *File, err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	errSeen := false
	fs.Write("x", MB, dns[0], func(_ *File, err error) { errSeen = err != nil })
	k.Run()
	if !errSeen {
		t.Fatal("duplicate write must fail")
	}
}

func TestMapSplits(t *testing.T) {
	k, _, fs, dns := testFS(t, 4, 2)
	var f *File
	fs.Write("in", 24*MB, dns[1], func(file *File, err error) { f = file })
	k.Run()
	splits := MapSplits(f)
	if len(splits) != len(f.Blocks) {
		t.Fatalf("splits %d blocks %d", len(splits), len(f.Blocks))
	}
	for i, s := range splits {
		if s.Bytes != f.Blocks[i].Bytes || len(s.Preferred) != 2 {
			t.Fatalf("split %d: %+v", i, s)
		}
	}
}

func TestLocalitySchedulingUsesSplits(t *testing.T) {
	// End-to-end: HDFS file -> splits -> mapreduce job with locality.
	k := sim.NewKernel(1)
	net := simnet.New(k)
	s := net.AddSite("cloud", 125*MB, 125*MB)
	var dns []*simnet.Node
	for i := 0; i < 4; i++ {
		dns = append(dns, s.AddNode("w"+string(rune('0'+i)), 125*MB))
	}
	fs := New(net, Config{BlockSize: 8 * MB, Replication: 2}, dns, 3)
	var f *File
	fs.Write("input", 64*MB, dns[0], func(file *File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		f = file
	})
	k.Run()
	cl := mapreduce.NewCluster(net)
	for i, dn := range dns {
		cl.AddWorker("w"+string(rune('0'+i)), dn, 1, 2)
	}
	splits := MapSplits(f)
	var res mapreduce.Result
	err := cl.Run(mapreduce.Job{Name: "loc", NumMaps: len(splits), NumReduces: 1,
		MapCPU: 5, ReduceCPU: 1, ShuffleBytesPerMapPerReduce: 1024, Splits: splits},
		func(r mapreduce.Result) { res = r })
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if res.Makespan == 0 {
		t.Fatal("job hung")
	}
	if res.NodeLocalMaps == 0 {
		t.Fatal("locality scheduler placed no node-local maps despite co-located replicas")
	}
	if res.NodeLocalMaps+res.SiteLocalMaps+res.RemoteMaps != len(splits) {
		t.Fatalf("locality accounting inconsistent: %+v", res)
	}
	// Node-local maps dominate when every worker is a datanode.
	if res.NodeLocalMaps < len(splits)/2 {
		t.Fatalf("only %d/%d node-local maps", res.NodeLocalMaps, len(splits))
	}
}

func TestSplitMismatchRejected(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k)
	s := net.AddSite("c", MB, MB)
	cl := mapreduce.NewCluster(net)
	cl.AddWorker("w", s.AddNode("w", 100*MB), 1, 1)
	err := cl.Run(mapreduce.Job{Name: "bad", NumMaps: 4, MapCPU: 1,
		Splits: []mapreduce.Split{{Bytes: 1}}}, nil)
	if err == nil {
		t.Fatal("split/maps mismatch must be rejected")
	}
}
