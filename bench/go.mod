module fuse/bench

go 1.24

require fuse v0.0.0

replace fuse => ../
