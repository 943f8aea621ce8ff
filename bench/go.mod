module ldplayer/bench

go 1.24

require ldplayer v0.0.0

replace ldplayer => ../
