package main

// Example runs the whole program on the deterministic simulator; its
// output is the same on every run.
func Example() {
	main()
	// Output:
	// replicating 8 documents onto 3-node replica sets...
	//   doc-00 (v1) on [7 12 17] group n0007.fuse.example.org/2dd3767e0f7ccdc
	//   doc-01 (v1) on [10 15 20] group n0010.fuse.example.org/2b488412409857e
	//   doc-02 (v1) on [13 18 23] group n0013.fuse.example.org/74d89582b6f95d84
	//   doc-03 (v1) on [16 21 26] group n0016.fuse.example.org/9af1fef22df367e2
	//   doc-04 (v1) on [19 24 29] group n0019.fuse.example.org/cfe278d7e86df727
	//   doc-05 (v1) on [22 27 32] group n0022.fuse.example.org/2ebf5fda1c27752
	//   doc-06 (v1) on [25 30 35] group n0025.fuse.example.org/a247e48ee3c0b8d5
	//   doc-07 (v1) on [28 33 38] group n0028.fuse.example.org/8546ab3ef695700d
	//
	// crashing node 12 (holds: doc-00)
	//   doc-00 re-replicated (v2) onto [14 19 24]
	//
	// final placement:
	//   doc-00 v2 on [14 19 24] (3 live replicas)
	//   doc-01 v1 on [10 15 20] (3 live replicas)
	//   doc-02 v1 on [13 18 23] (3 live replicas)
	//   doc-03 v1 on [16 21 26] (3 live replicas)
	//   doc-04 v1 on [19 24 29] (3 live replicas)
	//   doc-05 v1 on [22 27 32] (3 live replicas)
	//   doc-06 v1 on [25 30 35] (3 live replicas)
	//   doc-07 v1 on [28 33 38] (3 live replicas)
	//
	// no orphaned replicas, no unguarded documents.
}
