module flowkv/bench

go 1.22

require flowkv v0.0.0

replace flowkv => ../
