package main

// Example runs the whole program on the deterministic simulator; its
// output is the same on every run.
func Example() {
	main()
	// Output:
	// replicating 8 documents onto 3-node replica sets...
	//   doc-00 (v1) on [7 12 17] group n0007.fuse.example.org/c9dcf1d111a0b91c
	//   doc-01 (v1) on [10 15 20] group n0010.fuse.example.org/3680550148431eea
	//   doc-02 (v1) on [13 18 23] group n0013.fuse.example.org/e0f82475036eaac9
	//   doc-03 (v1) on [16 21 26] group n0016.fuse.example.org/f023accdae7b9371
	//   doc-04 (v1) on [19 24 29] group n0019.fuse.example.org/4a3c53b97a3c828c
	//   doc-05 (v1) on [22 27 32] group n0022.fuse.example.org/b9612238769d12bd
	//   doc-06 (v1) on [25 30 35] group n0025.fuse.example.org/5ce3b6aaadd93e77
	//   doc-07 (v1) on [28 33 38] group n0028.fuse.example.org/e9aa7cddc83c4345
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
